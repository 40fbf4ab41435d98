//! Adjoint differentiation of expectation values on the state-vector
//! engine.
//!
//! This is the efficient classical-simulation analog of backpropagation
//! (what TorchQuantum/Pennylane use for noiseless training in the paper's
//! Section 8.2.1 "classical simulators" scenario): the gradient of
//! `<psi|O|psi>` with respect to *all* parameters costs O(1) extra circuit
//! sweeps instead of the O(P) circuit executions of the parameter-shift
//! rule.

use crate::engine::{self, Slots};
use crate::statevector::StateVector;
use crate::workspace;
use elivagar_circuit::math::{C64, Mat2, Mat4};
use elivagar_circuit::{Circuit, Gate, ParamExpr, ParamSource};
use std::cell::RefCell;
use std::ops::Range;

/// A weighted sum of single-qubit Pauli-Z terms, `O = sum_k w_k Z_{q_k}`.
///
/// Z observables commute and are diagonal in the computational basis, so a
/// classifier loss gradient over several measured qubits folds into a single
/// effective observable — one adjoint pass differentiates the whole model.
#[derive(Clone, Debug, PartialEq)]
pub struct ZObservable {
    terms: Vec<(usize, f64)>,
    /// `ZZ` coupling terms `(qubit_a, qubit_b, weight)` — still diagonal,
    /// used by Ising-type Hamiltonians (the VQE extension).
    zz_terms: Vec<(usize, usize, f64)>,
    /// Constant energy offset.
    offset: f64,
}

impl ZObservable {
    /// Creates an observable from `(qubit, weight)` terms.
    pub fn new(terms: Vec<(usize, f64)>) -> Self {
        ZObservable { terms, zz_terms: Vec::new(), offset: 0.0 }
    }

    /// Single `Z` on one qubit.
    pub fn z(qubit: usize) -> Self {
        ZObservable::new(vec![(qubit, 1.0)])
    }

    /// Clears and refills the single-Z terms in place, dropping any ZZ
    /// terms and offset — recycles the observable's allocations so hot
    /// loops (e.g. per-sample classifier gradients) can rebuild the
    /// effective observable without heap traffic.
    pub fn reset_terms(&mut self, terms: impl IntoIterator<Item = (usize, f64)>) {
        self.terms.clear();
        self.terms.extend(terms);
        self.zz_terms.clear();
        self.offset = 0.0;
    }

    /// Adds a `w * Z_a Z_b` coupling term.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (that is a constant, use [`Self::with_offset`]).
    #[must_use]
    pub fn with_zz(mut self, a: usize, b: usize, weight: f64) -> Self {
        assert_ne!(a, b, "Z_a Z_a is the identity; fold it into the offset");
        self.zz_terms.push((a, b, weight));
        self
    }

    /// Adds a constant offset to the observable.
    #[must_use]
    pub fn with_offset(mut self, offset: f64) -> Self {
        self.offset += offset;
        self
    }

    /// The `(qubit, weight)` single-Z terms.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The `(a, b, weight)` ZZ coupling terms.
    pub fn zz_terms(&self) -> &[(usize, usize, f64)] {
        &self.zz_terms
    }

    /// Eigenvalue of the observable on a computational basis state.
    #[inline]
    fn eigenvalue(&self, basis_index: usize) -> f64 {
        let single: f64 = self
            .terms
            .iter()
            .map(|&(q, w)| if basis_index & (1 << q) == 0 { w } else { -w })
            .sum();
        let coupled: f64 = self
            .zz_terms
            .iter()
            .map(|&(a, b, w)| {
                let za = basis_index & (1 << a) == 0;
                let zb = basis_index & (1 << b) == 0;
                if za == zb { w } else { -w }
            })
            .sum();
        single + coupled + self.offset
    }

    /// Applies the (diagonal) observable to a state: `|out> = O |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if a term's qubit is out of range.
    pub fn apply(&self, psi: &StateVector) -> StateVector {
        for &(q, _) in &self.terms {
            assert!(q < psi.num_qubits(), "observable qubit {q} out of range");
        }
        for &(a, b, _) in &self.zz_terms {
            assert!(a < psi.num_qubits() && b < psi.num_qubits(), "zz qubit out of range");
        }
        let amps: Vec<C64> = psi
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(i, a)| a.scale(self.eigenvalue(i)))
            .collect();
        // Bypass normalization: O|psi> is generally not a unit vector.
        StateVector::raw(psi.num_qubits(), amps)
    }

    /// Applies the (diagonal) observable in place: `|psi> <- O |psi>`.
    /// The state is generally no longer normalized afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a term's qubit is out of range.
    pub fn apply_in_place(&self, psi: &mut StateVector) {
        for &(q, _) in &self.terms {
            assert!(q < psi.num_qubits(), "observable qubit {q} out of range");
        }
        for &(a, b, _) in &self.zz_terms {
            assert!(a < psi.num_qubits() && b < psi.num_qubits(), "zz qubit out of range");
        }
        for (i, a) in psi.amps_mut().iter_mut().enumerate() {
            *a = a.scale(self.eigenvalue(i));
        }
    }

    /// Expectation value `<psi|O|psi>`.
    pub fn expectation(&self, psi: &StateVector) -> f64 {
        psi.amplitudes()
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * self.eigenvalue(i))
            .sum()
    }
}

/// Result of one adjoint pass: the expectation value plus gradients with
/// respect to trainable parameters and input features.
#[derive(Clone, Debug, PartialEq)]
pub struct Gradients {
    /// The expectation value `<psi|O|psi>` at the given parameters.
    pub expectation: f64,
    /// Gradient with respect to each trainable parameter.
    pub params: Vec<f64>,
    /// Gradient with respect to each input feature (zero where a feature is
    /// unused; empty for amplitude-embedded circuits, which do not expose
    /// feature gradients).
    pub features: Vec<f64>,
}

/// Step used for central-difference derivatives of gate matrices. The
/// matrices are entire functions of the angle, so the truncation error is
/// O(h^2) ~ 1e-12 — negligible against the 1e-7 tolerances of training.
const MATRIX_DIFF_STEP: f64 = 1e-6;

#[allow(clippy::needless_range_loop)]
fn dmat1(gate: elivagar_circuit::Gate, values: &[f64], slot: usize) -> Mat2 {
    let mut plus = [0.0f64; 3];
    let mut minus = [0.0f64; 3];
    plus[..values.len()].copy_from_slice(values);
    minus[..values.len()].copy_from_slice(values);
    plus[slot] += MATRIX_DIFF_STEP;
    minus[slot] -= MATRIX_DIFF_STEP;
    let mp = gate.matrix1(&plus[..values.len()]);
    let mm = gate.matrix1(&minus[..values.len()]);
    let mut out = [[C64::ZERO; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            out[r][c] = (mp.0[r][c] - mm.0[r][c]).scale(0.5 / MATRIX_DIFF_STEP);
        }
    }
    Mat2(out)
}

#[allow(clippy::needless_range_loop)]
fn dmat2(gate: elivagar_circuit::Gate, values: &[f64], slot: usize) -> Mat4 {
    let mut plus = [0.0f64; 3];
    let mut minus = [0.0f64; 3];
    plus[..values.len()].copy_from_slice(values);
    minus[..values.len()].copy_from_slice(values);
    plus[slot] += MATRIX_DIFF_STEP;
    minus[slot] -= MATRIX_DIFF_STEP;
    let mp = gate.matrix2(&plus[..values.len()]);
    let mm = gate.matrix2(&minus[..values.len()]);
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = (mp.0[r][c] - mm.0[r][c]).scale(0.5 / MATRIX_DIFF_STEP);
        }
    }
    Mat4(out)
}

#[derive(Clone, Copy)]
enum SinkKind {
    Param(usize),
    Feature(usize),
}

/// One operation of an adjoint program's backward sweep. Static blocks
/// and θ-bound gates carry their dagger precomputed (the backward pass
/// applies it to both `psi` and `lambda`); gates still holding symbolic
/// slots act as fusion barriers and resolve per sample.
#[derive(Clone, Debug)]
enum AdjOp {
    /// A fused static block (`derivs` empty) or a bound trainable-only
    /// gate; `derivs` indexes its gradient slots in
    /// [`BoundAdjoint::derivs1`].
    One { q: usize, md: Mat2, derivs: Range<usize> },
    /// The two-qubit sibling of [`AdjOp::One`], indexing
    /// [`BoundAdjoint::derivs2`].
    Two { qa: usize, qb: usize, md: Mat4, derivs: Range<usize> },
    Dyn1 { q: usize, gate: Gate, params: Slots },
    Dyn2 { qa: usize, qb: usize, gate: Gate, params: Slots },
}

/// One trainable slot of a bound gate: the gate's derivative with respect
/// to the slot's angle and where (with which chain-rule scale) the
/// gradient term lands.
#[derive(Clone, Debug)]
struct Deriv<M> {
    param: usize,
    scale: f64,
    dm: M,
}

/// A circuit compiled for streamed adjoint differentiation.
///
/// The instruction stream is run through the engine's gate fuser once at
/// compile time, so every static stretch of the circuit becomes a single
/// fused block with its dagger precomputed. The forward and backward
/// sweeps then execute through the same fused kernels as
/// [`Program::run`](crate::Program::run), and gradient terms are formed by
/// the one-pass bilinear kernels (`2 Re <lambda| dU |psi>`) instead of
/// materializing `dU |psi>` — three full state sweeps per parameter slot
/// collapse into one.
///
/// Compile once per circuit, then [`bind_into`](AdjointProgram::bind_into)
/// once per parameter vector and run [`BoundAdjoint::run_adjoint_with`]
/// per sample: binding resolves every gate that reads only trainable
/// parameters (its matrix, dagger and per-slot derivatives) once, so the
/// per-sample sweeps only resolve gates that read input features.
/// [`AdjointProgram::run_adjoint_with`] binds and runs in one call. A
/// warmed-up call of either performs no heap allocation.
#[derive(Clone, Debug)]
pub struct AdjointProgram {
    num_qubits: usize,
    amplitude_embedding: bool,
    /// The fused op stream as [`Program`](crate::Program) executes it —
    /// the forward sweep runs through [`engine::apply_ops`] (including
    /// the angles-known re-fusion pass), so the pre-backward state is
    /// bit-identical to `Program::run`'s.
    forward: Vec<engine::Op>,
    /// The same stream with per-block daggers precomputed, walked in
    /// reverse by the backward sweep.
    ops: Vec<AdjOp>,
    /// Lowest op index whose backward visit can contribute a gradient
    /// term (the first dynamic op with a slot this program differentiates
    /// — see [`AdjointProgram::feature_grads`]). Once the backward sweep
    /// passes it, `psi` and `lambda` are dead and the remaining rollback
    /// sweeps are skipped.
    stop: usize,
    /// Whether feature slots are differentiated. [`AdjointProgram::compile`]
    /// sets this; [`AdjointProgram::compile_params_only`] clears it, which
    /// skips the bilinear pass for every feature-sourced slot and lets
    /// `stop` rise past trailing feature-embedding stretches.
    feature_grads: bool,
}

thread_local! {
    /// Recycled bind target of the unbound [`AdjointProgram::run_adjoint_with`].
    static BIND_SCRATCH: RefCell<BoundAdjoint> = RefCell::default();
}

impl AdjointProgram {
    /// Fuses a circuit into a streamed-adjoint program differentiating
    /// every trainable parameter and input feature.
    pub fn compile(circuit: &Circuit) -> Self {
        Self::compile_inner(circuit, true)
    }

    /// Fuses a circuit into a streamed-adjoint program differentiating
    /// trainable parameters only: `out.features` comes back all-zero and
    /// no backward work is spent on feature-sourced slots. Trainable
    /// gradients are bit-identical to [`AdjointProgram::compile`]'s. The
    /// classifier training paths use this — they never read feature
    /// gradients, and data-embedding gates are pure overhead there.
    pub fn compile_params_only(circuit: &Circuit) -> Self {
        Self::compile_inner(circuit, false)
    }

    fn compile_inner(circuit: &Circuit, feature_grads: bool) -> Self {
        let items = engine::classify_items(circuit);
        let forward = engine::fuse(circuit.num_qubits(), items);
        let ops: Vec<AdjOp> = forward
            .iter()
            .map(|op| match *op {
                engine::Op::One { q, m } => AdjOp::One { q, md: m.dagger(), derivs: 0..0 },
                engine::Op::Two { qa, qb, m } => {
                    AdjOp::Two { qa, qb, md: m.dagger(), derivs: 0..0 }
                }
                engine::Op::Dyn1 { q, gate, params } => AdjOp::Dyn1 { q, gate, params },
                engine::Op::Dyn2 { qa, qb, gate, params } => AdjOp::Dyn2 { qa, qb, gate, params },
            })
            .collect();
        let differentiated = |e: &ParamExpr| {
            if feature_grads {
                !matches!(e.source, ParamSource::Constant(_))
            } else {
                matches!(e.source, ParamSource::Trainable(_))
            }
        };
        let stop = ops
            .iter()
            .position(|op| match op {
                AdjOp::Dyn1 { params, .. } | AdjOp::Dyn2 { params, .. } => {
                    params.iter().any(differentiated)
                }
                AdjOp::One { .. } | AdjOp::Two { .. } => false,
            })
            .unwrap_or(ops.len());
        AdjointProgram {
            num_qubits: circuit.num_qubits(),
            amplitude_embedding: circuit.amplitude_embedding(),
            forward,
            ops,
            stop,
            feature_grads,
        }
    }

    /// Number of qubits in the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Binds trainable parameters into `bound`, reusing its buffers.
    ///
    /// Every gate whose slots read only trainable parameters and constants
    /// becomes a static op carrying its matrix, its dagger and one
    /// derivative matrix per trainable slot. Gates with a data slot stay
    /// symbolic. Bound ops keep their positions and stay unfused, so the
    /// per-sample forward re-fusion sees exactly the items it would have
    /// resolved itself; only when no symbolic op remains (e.g. amplitude
    /// embedding) is the forward stream fused here, once, as the
    /// per-sample pass would have fused it. Results are therefore
    /// bit-identical to resolving every gate per sample.
    pub fn bind_into(&self, params: &[f64], bound: &mut BoundAdjoint) {
        bound.num_qubits = self.num_qubits;
        bound.amplitude_embedding = self.amplitude_embedding;
        bound.stop = self.stop;
        bound.feature_grads = self.feature_grads;
        bound.params.clear();
        bound.params.extend_from_slice(params);
        bound.forward.clear();
        bound.ops.clear();
        bound.derivs1.clear();
        bound.derivs2.clear();
        for (fwd, op) in self.forward.iter().zip(&self.ops) {
            match op {
                AdjOp::Dyn1 { q, gate, params: exprs } if !exprs.reads_data() => {
                    let values = engine::resolve_values(exprs, params, &[]);
                    let values = &values[..exprs.len()];
                    let m = gate.matrix1(values);
                    let first = bound.derivs1.len();
                    for (slot, expr) in exprs.iter().enumerate() {
                        if let ParamSource::Trainable(i) = expr.source {
                            let dm = dmat1(*gate, values, slot);
                            bound.derivs1.push(Deriv { param: i, scale: expr.scale, dm });
                        }
                    }
                    bound.forward.push(engine::Op::One { q: *q, m });
                    let derivs = first..bound.derivs1.len();
                    bound.ops.push(AdjOp::One { q: *q, md: m.dagger(), derivs });
                }
                AdjOp::Dyn2 { qa, qb, gate, params: exprs } if !exprs.reads_data() => {
                    let values = engine::resolve_values(exprs, params, &[]);
                    let values = &values[..exprs.len()];
                    let m = gate.matrix2(values);
                    let first = bound.derivs2.len();
                    for (slot, expr) in exprs.iter().enumerate() {
                        if let ParamSource::Trainable(i) = expr.source {
                            let dm = dmat2(*gate, values, slot);
                            bound.derivs2.push(Deriv { param: i, scale: expr.scale, dm });
                        }
                    }
                    bound.forward.push(engine::Op::Two { qa: *qa, qb: *qb, m });
                    let derivs = first..bound.derivs2.len();
                    bound.ops.push(AdjOp::Two { qa: *qa, qb: *qb, md: m.dagger(), derivs });
                }
                _ => {
                    bound.forward.push(fwd.clone());
                    bound.ops.push(op.clone());
                }
            }
        }
        let was_dynamic = self.forward.iter().any(engine::Op::is_dynamic);
        if was_dynamic && !bound.forward.iter().any(engine::Op::is_dynamic) {
            engine::refuse_static(&mut bound.forward, self.num_qubits);
        }
    }

    /// One streamed adjoint pass at `params`: binds into a recycled
    /// per-thread [`BoundAdjoint`] and runs
    /// [`BoundAdjoint::run_adjoint_with`]. Callers that run many samples
    /// at one parameter vector should bind once themselves instead.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references out-of-range parameters/features,
    /// or if an observable qubit is out of range.
    pub fn run_adjoint_with<T>(
        &self,
        params: &[f64],
        features: &[f64],
        observable: &mut ZObservable,
        prepare: impl FnOnce(&StateVector, &mut ZObservable) -> T,
        out: &mut Gradients,
    ) -> T {
        // Taken out (not borrowed) so a `prepare` hook that itself runs
        // an adjoint pass cannot hit a live borrow.
        let mut bound = BIND_SCRATCH.take();
        self.bind_into(params, &mut bound);
        let result = bound.run_adjoint_with(features, observable, prepare, out);
        BIND_SCRATCH.set(bound);
        result
    }

    /// Streamed-adjoint gradient into a caller-provided [`Gradients`]
    /// (the fixed-observable convenience over
    /// [`AdjointProgram::run_adjoint_with`]).
    pub fn gradient_into(
        &self,
        params: &[f64],
        features: &[f64],
        observable: &ZObservable,
        out: &mut Gradients,
    ) {
        let mut obs = observable.clone();
        self.run_adjoint_with(params, features, &mut obs, |_, _| (), out);
    }

    /// Allocating convenience wrapper over [`AdjointProgram::gradient_into`].
    pub fn gradient(&self, params: &[f64], features: &[f64], observable: &ZObservable) -> Gradients {
        let mut out = Gradients {
            expectation: 0.0,
            params: Vec::new(),
            features: Vec::new(),
        };
        self.gradient_into(params, features, observable, &mut out);
        out
    }
}

/// An [`AdjointProgram`] with its trainable parameters bound (see
/// [`AdjointProgram::bind_into`]); runs the streamed adjoint per sample.
/// `Default` gives an empty bind target whose buffers grow on first use
/// and are reused by every later bind.
#[derive(Clone, Debug, Default)]
pub struct BoundAdjoint {
    num_qubits: usize,
    amplitude_embedding: bool,
    stop: usize,
    feature_grads: bool,
    params: Vec<f64>,
    forward: Vec<engine::Op>,
    ops: Vec<AdjOp>,
    derivs1: Vec<Deriv<Mat2>>,
    derivs2: Vec<Deriv<Mat4>>,
}

impl BoundAdjoint {
    /// One streamed adjoint pass with a caller hook between the forward
    /// sweep and the backward sweep.
    ///
    /// `prepare` receives the final forward state and a mutable borrow of
    /// the observable; classifier losses use it to compute per-class
    /// expectations / loss weights from `psi` and rebuild the effective
    /// observable in place (via [`ZObservable::reset_terms`]) — the
    /// separate forward execution the old path needed for that disappears.
    /// Whatever `prepare` returns is returned to the caller.
    ///
    /// After `prepare`, `out.expectation` is set to `<psi|O|psi>` for the
    /// (possibly updated) observable and `out.params` / `out.features`
    /// receive the gradients, exactly as
    /// [`reference::adjoint_gradient_into`].
    ///
    /// # Panics
    ///
    /// Panics if the circuit references out-of-range features, or if an
    /// observable qubit is out of range.
    pub fn run_adjoint_with<T>(
        &self,
        features: &[f64],
        observable: &mut ZObservable,
        prepare: impl FnOnce(&StateVector, &mut ZObservable) -> T,
        out: &mut Gradients,
    ) -> T {
        let parallel = self.num_qubits >= engine::AMPLITUDE_PAR_MIN_QUBITS;
        let params = &self.params[..];
        // Forward pass: the exact `Program::run` execution — fused blocks,
        // angles-known re-fusion of dynamic stretches, cache-blocked
        // sweeps — so the state handed to `prepare` is bit-identical to a
        // plain forward execute.
        let mut psi = if self.amplitude_embedding {
            workspace::acquire_embedded(self.num_qubits, features)
        } else {
            workspace::acquire_zero(self.num_qubits)
        };
        engine::apply_ops(&mut psi, &self.forward, self.num_qubits, params, features);

        let result = prepare(&psi, observable);
        out.expectation = observable.expectation(&psi);
        let mut lambda = workspace::acquire_copy(&psi);
        observable.apply_in_place(&mut lambda);
        out.params.clear();
        out.params.resize(params.len(), 0.0);
        out.features.clear();
        out.features.resize(features.len(), 0.0);

        for (idx, op) in self.ops.iter().enumerate().rev() {
            // Below `stop` no op can contribute a gradient term, so the
            // remaining rollback of `psi`/`lambda` is dead work. At `stop`
            // itself `lambda` is dead after the bilinear terms.
            if idx < self.stop {
                break;
            }
            let last = idx == self.stop;
            match op {
                AdjOp::One { q, md, derivs } => {
                    // psi_{k-1} = U_k^dagger psi_k.
                    engine::apply_fused1(&mut psi, *q, md, parallel);
                    for d in &self.derivs1[derivs.clone()] {
                        // 2 Re <lambda_k | dU_k | psi_{k-1}> in one pass.
                        let g = 2.0 * lambda.bilinear_mat1(&psi, *q, &d.dm);
                        out.params[d.param] += g * d.scale;
                    }
                    // lambda_{k-1} = U_k^dagger lambda_k.
                    if !last {
                        engine::apply_fused1(&mut lambda, *q, md, parallel);
                    }
                }
                AdjOp::Two { qa, qb, md, derivs } => {
                    engine::apply_fused2(&mut psi, *qa, *qb, md, parallel);
                    for d in &self.derivs2[derivs.clone()] {
                        let g = 2.0 * lambda.bilinear_mat2(&psi, *qa, *qb, &d.dm);
                        out.params[d.param] += g * d.scale;
                    }
                    if !last {
                        engine::apply_fused2(&mut lambda, *qa, *qb, md, parallel);
                    }
                }
                AdjOp::Dyn1 { q, gate, params: exprs } => {
                    let values = engine::resolve_values(exprs, params, features);
                    let values = &values[..exprs.len()];
                    let ud = gate.matrix1(values).dagger();
                    engine::apply_fused1(&mut psi, *q, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        let g = 2.0 * lambda.bilinear_mat1(&psi, *q, &dmat1(*gate, values, slot));
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    if !last {
                        engine::apply_fused1(&mut lambda, *q, &ud, parallel);
                    }
                }
                AdjOp::Dyn2 { qa, qb, gate, params: exprs } => {
                    let values = engine::resolve_values(exprs, params, features);
                    let values = &values[..exprs.len()];
                    let ud = gate.matrix2(values).dagger();
                    engine::apply_fused2(&mut psi, *qa, *qb, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        let g = 2.0
                            * lambda.bilinear_mat2(&psi, *qa, *qb, &dmat2(*gate, values, slot));
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    if !last {
                        engine::apply_fused2(&mut lambda, *qa, *qb, &ud, parallel);
                    }
                }
            }
        }

        workspace::release_state(lambda);
        workspace::release_state(psi);
        result
    }
}

/// Expands a parameter expression into its gradient sinks (chain-rule
/// scales included); returns how many of the two slots are used. With
/// `feature_grads` off, feature-sourced expressions yield no sinks so the
/// caller skips their bilinear pass entirely.
#[inline]
fn classify_sinks(
    expr: &ParamExpr,
    features: &[f64],
    feature_grads: bool,
    sinks: &mut [(SinkKind, f64); 2],
) -> usize {
    match expr.source {
        ParamSource::Trainable(i) => {
            sinks[0] = (SinkKind::Param(i), expr.scale);
            1
        }
        ParamSource::Feature(i) if feature_grads => {
            sinks[0] = (SinkKind::Feature(i), expr.scale);
            1
        }
        ParamSource::FeatureProduct(i, j) if feature_grads => {
            sinks[0] = (SinkKind::Feature(i), expr.scale * features[j]);
            sinks[1] = (SinkKind::Feature(j), expr.scale * features[i]);
            2
        }
        _ => 0,
    }
}

#[inline]
fn accumulate_sinks(sinks: &[(SinkKind, f64)], g: f64, out: &mut Gradients) {
    for &(sink, chain) in sinks {
        match sink {
            SinkKind::Param(i) => out.params[i] += g * chain,
            SinkKind::Feature(i) => out.features[i] += g * chain,
        }
    }
}

/// The per-instruction reference adjoint: walks the circuit gate by gate,
/// with no fusion, and forms each gradient term by materializing
/// `dU |psi>` (three full state sweeps per parameter slot).
///
/// This is the differential oracle [`AdjointProgram`] is tested against,
/// and the pre-streaming gradient baseline `bench_fusion` times. Library
/// code differentiates through [`AdjointProgram`]. It stays
/// allocation-free so the benchmark baseline measures the same work it
/// always has.
pub mod reference {
    use super::{accumulate_sinks, classify_sinks, dmat1, dmat2, Gradients, SinkKind, ZObservable};
    use crate::workspace;
    use elivagar_circuit::{Circuit, Instruction};

    /// Computes `<psi|O|psi>` and its gradient with respect to every trainable
    /// parameter and input feature by the adjoint method.
    ///
    /// The same trainable index may appear in several gates (weight sharing, as
    /// in SuperCircuits); contributions accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references out-of-range parameters/features, or if
    /// an observable qubit is out of range.
    pub fn adjoint_gradient(
        circuit: &Circuit,
        params: &[f64],
        features: &[f64],
        observable: &ZObservable,
    ) -> Gradients {
        let mut out = Gradients {
            expectation: 0.0,
            params: Vec::new(),
            features: Vec::new(),
        };
        adjoint_gradient_into(circuit, params, features, observable, &mut out);
        out
    }

    /// Resolves a gate's parameter expressions into a stack array (the hot
    /// path avoids the `Vec` that [`Instruction::resolve_params`] allocates).
    #[inline]
    fn resolve_stack(ins: &Instruction, params: &[f64], features: &[f64]) -> [f64; 3] {
        let mut values = [0.0f64; 3];
        for (v, e) in values.iter_mut().zip(&ins.params) {
            *v = e.resolve(params, features);
        }
        values
    }

    /// [`adjoint_gradient`] writing into a caller-provided [`Gradients`].
    ///
    /// All scratch states come from the per-thread [`workspace`] pools and the
    /// output vectors are cleared and refilled in place, so a warmed-up call
    /// performs no heap allocation. Results are bit-identical to
    /// [`adjoint_gradient`] (a thin wrapper around this).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`adjoint_gradient`].
    pub fn adjoint_gradient_into(
        circuit: &Circuit,
        params: &[f64],
        features: &[f64],
        observable: &ZObservable,
        out: &mut Gradients,
    ) {
        // Forward pass, mirroring `StateVector::run` on recycled buffers.
        let mut psi = if circuit.amplitude_embedding() {
            workspace::acquire_embedded(circuit.num_qubits(), features)
        } else {
            workspace::acquire_zero(circuit.num_qubits())
        };
        for ins in circuit.instructions() {
            let values = resolve_stack(ins, params, features);
            if ins.gate.num_qubits() == 1 {
                psi.apply_mat1(ins.qubits[0], &ins.gate.matrix1(&values[..ins.params.len()]));
            } else {
                psi.apply_mat2(
                    ins.qubits[0],
                    ins.qubits[1],
                    &ins.gate.matrix2(&values[..ins.params.len()]),
                );
            }
        }

        out.expectation = observable.expectation(&psi);
        let mut lambda = workspace::acquire_copy(&psi);
        observable.apply_in_place(&mut lambda);
        out.params.clear();
        out.params.resize(params.len(), 0.0);
        out.features.clear();
        out.features.resize(features.len(), 0.0);
        let mut phi = workspace::acquire_copy(&psi);

        for ins in circuit.instructions().iter().rev() {
            let values = resolve_stack(ins, params, features);
            let values = &values[..ins.params.len()];
            // psi_{k-1} = U_k^dagger psi_k.
            if ins.gate.num_qubits() == 1 {
                let ud = ins.gate.matrix1(values).dagger();
                psi.apply_mat1(ins.qubits[0], &ud);
            } else {
                let ud = ins.gate.matrix2(values).dagger();
                psi.apply_mat2(ins.qubits[0], ins.qubits[1], &ud);
            }
            // Gradient terms: 2 Re <lambda_k | dU_k | psi_{k-1}>.
            for (slot, expr) in ins.params.iter().enumerate() {
                let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                let num_sinks = classify_sinks(expr, features, true, &mut sinks);
                if num_sinks == 0 {
                    continue;
                }
                phi.copy_from(&psi);
                if ins.gate.num_qubits() == 1 {
                    phi.apply_mat1(ins.qubits[0], &dmat1(ins.gate, values, slot));
                } else {
                    phi.apply_mat2(ins.qubits[0], ins.qubits[1], &dmat2(ins.gate, values, slot));
                }
                let g = 2.0 * lambda.inner_product(&phi).re;
                accumulate_sinks(&sinks[..num_sinks], g, out);
            }
            // lambda_{k-1} = U_k^dagger lambda_k.
            if ins.gate.num_qubits() == 1 {
                let ud = ins.gate.matrix1(values).dagger();
                lambda.apply_mat1(ins.qubits[0], &ud);
            } else {
                let ud = ins.gate.matrix2(values).dagger();
                lambda.apply_mat2(ins.qubits[0], ins.qubits[1], &ud);
            }
        }

        workspace::release_state(phi);
        workspace::release_state(lambda);
        workspace::release_state(psi);
    }
}

#[cfg(test)]
mod tests {
    use super::reference::adjoint_gradient;
    use super::*;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};

    fn finite_difference_param(
        circuit: &Circuit,
        params: &[f64],
        features: &[f64],
        obs: &ZObservable,
        i: usize,
    ) -> f64 {
        let h = 1e-6;
        let mut plus = params.to_vec();
        let mut minus = params.to_vec();
        plus[i] += h;
        minus[i] -= h;
        let ep = obs.expectation(&StateVector::run(circuit, &plus, features));
        let em = obs.expectation(&StateVector::run(circuit, &minus, features));
        (ep - em) / (2.0 * h)
    }

    #[test]
    fn single_rotation_gradient_is_analytic() {
        // <Z> of RX(theta)|0> = cos(theta); d/dtheta = -sin(theta).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let theta = 0.9;
        let g = adjoint_gradient(&c, &[theta], &[], &ZObservable::z(0));
        assert!((g.expectation - theta.cos()).abs() < 1e-10);
        assert!((g.params[0] + theta.sin()).abs() < 1e-8, "{}", g.params[0]);
    }

    #[test]
    fn matches_finite_differences_on_entangled_circuit() {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::trainable(4),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::trainable(5)]);
        let params = [0.3, -0.8, 1.2, 0.5, -0.4, 0.7];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let g = adjoint_gradient(&c, &params, &[], &obs);
        for i in 0..params.len() {
            let fd = finite_difference_param(&c, &params, &[], &obs, i);
            assert!(
                (g.params[i] - fd).abs() < 1e-6,
                "param {i}: adjoint {} vs fd {fd}",
                g.params[i]
            );
        }
    }

    #[test]
    fn shared_parameters_accumulate() {
        // Two RX gates sharing one parameter on the same qubit: equivalent
        // to RX(2 theta), so d<Z>/dtheta = -2 sin(2 theta).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let theta = 0.4;
        let g = adjoint_gradient(&c, &[theta], &[], &ZObservable::z(0));
        assert!((g.params[0] + 2.0 * (2.0 * theta).sin()).abs() < 1e-8);
    }

    #[test]
    fn feature_gradients_flow_through_embeddings() {
        // RX(x0)|0>: d<Z>/dx0 = -sin(x0).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        let x = [0.6];
        let g = adjoint_gradient(&c, &[], &x, &ZObservable::z(0));
        assert!((g.features[0] + x[0].sin()).abs() < 1e-8);
    }

    #[test]
    fn feature_product_applies_chain_rule() {
        // RZZ-free check: RX(x0 * x1)|0>: d<Z>/dx0 = -x1 sin(x0 x1).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature_product(0, 1)]);
        let x = [0.5, 0.8];
        let g = adjoint_gradient(&c, &[], &x, &ZObservable::z(0));
        let expected0 = -x[1] * (x[0] * x[1]).sin();
        let expected1 = -x[0] * (x[0] * x[1]).sin();
        assert!((g.features[0] - expected0).abs() < 1e-8);
        assert!((g.features[1] - expected1).abs() < 1e-8);
    }

    #[test]
    fn constant_params_produce_no_gradient() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::constant(0.4)]);
        let g = adjoint_gradient(&c, &[], &[], &ZObservable::z(0));
        assert!(g.params.is_empty());
        assert!((g.expectation - 0.4f64.cos()).abs() < 1e-10);
    }

    #[test]
    fn zz_terms_measure_parity() {
        // Bell state: <Z0 Z1> = 1 while <Z0> = <Z1> = 0.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let psi = StateVector::run(&c, &[], &[]);
        let zz = ZObservable::new(vec![]).with_zz(0, 1, 1.0);
        assert!((zz.expectation(&psi) - 1.0).abs() < 1e-12);
        let z0 = ZObservable::z(0);
        assert!(z0.expectation(&psi).abs() < 1e-12);
        // Offset shifts the expectation by a constant.
        let shifted = ZObservable::new(vec![]).with_zz(0, 1, 1.0).with_offset(-2.5);
        assert!((shifted.expectation(&psi) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn gradients_flow_through_zz_observables() {
        // <Z0 Z1> of RX(theta) (x) I applied to |00> is cos(theta).
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let obs = ZObservable::new(vec![]).with_zz(0, 1, 1.0);
        let theta = 0.8;
        let g = adjoint_gradient(&c, &[theta], &[], &obs);
        assert!((g.expectation - theta.cos()).abs() < 1e-10);
        assert!((g.params[0] + theta.sin()).abs() < 1e-8);
    }

    #[test]
    fn streamed_adjoint_matches_reference_on_entangled_circuit() {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(Gate::Rz, &[2], &[ParamExpr::constant(0.3)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::feature(0),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::feature_product(0, 1)]);
        let params = [0.3, -0.8, 1.2, 0.5];
        let features = [0.7, -0.2];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let reference = adjoint_gradient(&c, &params, &features, &obs);
        let program = AdjointProgram::compile(&c);
        let streamed = program.gradient(&params, &features, &obs);
        assert!((streamed.expectation - reference.expectation).abs() < 1e-12);
        for (i, (s, r)) in streamed.params.iter().zip(&reference.params).enumerate() {
            assert!((s - r).abs() < 1e-10, "param {i}: streamed {s} vs reference {r}");
        }
        for (i, (s, r)) in streamed.features.iter().zip(&reference.features).enumerate() {
            assert!((s - r).abs() < 1e-10, "feature {i}: streamed {s} vs reference {r}");
        }
    }

    #[test]
    fn params_only_compile_matches_full_trainable_gradients_bitwise() {
        // Same circuit shape as the entangled test: feature slots mixed
        // into trainable gates, a feature-product Rzz at the end. The
        // params-only program must reproduce the trainable gradients to
        // the bit while zeroing every feature gradient.
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Rz, &[0], &[ParamExpr::feature(1)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::feature(0),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::feature_product(0, 1)]);
        let params = [0.3, -0.8, 1.2, 0.5];
        let features = [0.7, -0.2];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let full = AdjointProgram::compile(&c).gradient(&params, &features, &obs);
        let po = AdjointProgram::compile_params_only(&c).gradient(&params, &features, &obs);
        assert_eq!(po.expectation.to_bits(), full.expectation.to_bits());
        assert_eq!(po.params.len(), full.params.len());
        for (i, (p, f)) in po.params.iter().zip(&full.params).enumerate() {
            assert_eq!(p.to_bits(), f.to_bits(), "param {i} must be bit-identical");
        }
        assert_eq!(po.features, vec![0.0; features.len()], "feature grads must be zeroed");
    }

    #[test]
    fn run_adjoint_with_rebuilds_observable_from_forward_state() {
        // The prepare hook swaps in a new effective observable; the
        // gradient must be taken against the *updated* observable while
        // the hook still sees the forward state.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let params = [0.9];
        let program = AdjointProgram::compile(&c);
        let mut obs = ZObservable::z(0);
        let mut out = Gradients { expectation: 0.0, params: vec![], features: vec![] };
        let seen = program.run_adjoint_with(
            &params,
            &[],
            &mut obs,
            |psi, obs| {
                let e = ZObservable::z(0).expectation(psi);
                obs.reset_terms([(1usize, 2.0)]);
                e
            },
            &mut out,
        );
        let reference = adjoint_gradient(&c, &params, &[], &ZObservable::new(vec![(1, 2.0)]));
        assert!((seen - params[0].cos()).abs() < 1e-10);
        assert!((out.expectation - reference.expectation).abs() < 1e-12);
        assert!((out.params[0] - reference.params[0]).abs() < 1e-10);
    }

    /// Feature, trainable, mixed (trainable + feature + constant), shared
    /// and scaled slots, on qubit 0 and above.
    fn mixed_slot_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Crz, &[0, 2], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[1, 0], &[]);
        c.push_gate(
            Gate::U3,
            &[1],
            &[ParamExpr::trainable(2), ParamExpr::feature(1), ParamExpr::constant(0.2)],
        );
        c.push_gate(Gate::Rzz, &[2, 1], &[ParamExpr::trainable(0).scaled(-0.5)]);
        c.push_gate(Gate::Ry, &[2], &[ParamExpr::trainable(3)]);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(1)]);
        c
    }

    fn gradient_bits(g: &Gradients) -> (u64, Vec<u64>, Vec<u64>) {
        (
            g.expectation.to_bits(),
            g.params.iter().map(|v| v.to_bits()).collect(),
            g.features.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn rebinding_recycled_storage_matches_fresh_binds_bitwise() {
        let c = mixed_slot_circuit();
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let program = AdjointProgram::compile(&c);
        let mut recycled = BoundAdjoint::default();
        for params in [[0.3, -0.8, 1.2, 0.5], [-1.1, 0.4, 2.0, -0.6]] {
            program.bind_into(&params, &mut recycled);
            let mut fresh = BoundAdjoint::default();
            program.bind_into(&params, &mut fresh);
            // Bound ops keep their positions: a data gate remains, so the
            // forward stream is not fused at bind time.
            assert_eq!(recycled.forward.len(), program.forward.len());
            for features in [[0.7, -0.2], [-0.4, 1.3]] {
                let mut a = Gradients { expectation: 0.0, params: vec![], features: vec![] };
                let mut b = a.clone();
                recycled.run_adjoint_with(&features, &mut obs.clone(), |_, _| (), &mut a);
                fresh.run_adjoint_with(&features, &mut obs.clone(), |_, _| (), &mut b);
                let unbound = program.gradient(&params, &features, &obs);
                assert_eq!(gradient_bits(&a), gradient_bits(&b));
                assert_eq!(gradient_bits(&a), gradient_bits(&unbound));
                let reference = adjoint_gradient(&c, &params, &features, &obs);
                let ours = a.params.iter().chain(&a.features);
                for (s, r) in ours.zip(reference.params.iter().chain(&reference.features)) {
                    assert!((s - r).abs() < 1e-10, "bound {s} vs reference {r}");
                }
            }
        }
    }

    #[test]
    fn binding_without_data_gates_fuses_the_forward_stream_once() {
        let mut c = Circuit::new(2);
        c.set_amplitude_embedding(true);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Rz, &[0], &[ParamExpr::trainable(0).scaled(2.0)]);
        let program = AdjointProgram::compile_params_only(&c);
        let params = [0.4, -1.3];
        let mut bound = BoundAdjoint::default();
        program.bind_into(&params, &mut bound);
        assert!(!bound.forward.iter().any(engine::Op::is_dynamic));
        assert!(bound.forward.len() < program.forward.len(), "bound forward is fused");
        let features = [0.6, 0.0, 0.0, 0.8];
        let obs = ZObservable::new(vec![(0, 1.0), (1, -0.5)]);
        let mut g = Gradients { expectation: 0.0, params: vec![], features: vec![] };
        bound.run_adjoint_with(&features, &mut obs.clone(), |_, _| (), &mut g);
        let reference = adjoint_gradient(&c, &params, &features, &obs);
        assert!((g.expectation - reference.expectation).abs() < 1e-12);
        for (s, r) in g.params.iter().zip(&reference.params) {
            assert!((s - r).abs() < 1e-10, "bound {s} vs reference {r}");
        }
    }

    #[test]
    fn observable_apply_matches_expectation() {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let psi = StateVector::run(&c, &[], &[]);
        let obs = ZObservable::new(vec![(0, 1.0), (1, 2.0)]);
        let applied = obs.apply(&psi);
        let via_inner = psi.inner_product(&applied).re;
        assert!((via_inner - obs.expectation(&psi)).abs() < 1e-12);
    }
}
