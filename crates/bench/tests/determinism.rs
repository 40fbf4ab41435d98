//! Cross-thread-count determinism suite.
//!
//! Every predictor and training path must produce **bit-for-bit** the same
//! f64s at any `ELIVAGAR_THREADS` setting — Elivagar ranks candidates by
//! comparing these numbers, so even 1-ulp thread-count drift would change
//! search results. The constants below are `f64::to_bits` goldens captured
//! once; `scripts/verify.sh` reruns this suite with `ELIVAGAR_THREADS=1`
//! and `=2` (the env is read once at pool startup, so each thread count is
//! a separate process) and any scheduling-dependent reduction would break
//! at least one of the hardcoded bit patterns.
//!
//! The gradient and RepCap goldens predate the work-stealing runtime and
//! pin those paths to the original sequential implementation exactly. The
//! CNR, trajectory, and search goldens were captured after the per-task
//! RNG-stream split (their draw order changed, intentionally) and pin the
//! new streams.

use elivagar::config::{Nsga2Config, SearchConfig};
use elivagar::generate::generate_candidate;
use elivagar::{cnr, repcap, search};
use elivagar_cache::ENGINE_SALT;
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use elivagar_ml::{batch_gradient, GradientMethod, QuantumClassifier};
use elivagar_sim::{
    noisy_clifford_distribution, noisy_clifford_distribution_tableau, noisy_distribution,
    CircuitNoise,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixed single/two-qubit circuit with feature, trainable, and constant
/// parameter slots — exercises fusion, the dynamic per-sample path, and
/// the adjoint sweep.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    for q in 0..4 {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
        c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(q)]);
    }
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(4)]);
    c.push_gate(Gate::Cx, &[2, 3], &[]);
    c.push_gate(Gate::Ry, &[3], &[ParamExpr::trainable(5)]);
    c.set_measured(vec![0, 1, 2, 3]);
    c
}

fn golden_params() -> Vec<f64> {
    (0..6).map(|i| 0.3 * i as f64 - 0.7).collect()
}

fn golden_batch() -> (Vec<Vec<f64>>, Vec<usize>) {
    let features = (0..8)
        .map(|i| vec![0.25 * i as f64, 0.1 * i as f64 - 0.4])
        .collect();
    let labels = (0..8).map(|i| i % 2).collect();
    (features, labels)
}

fn assert_bits(actual: f64, golden: u64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        golden,
        "{what}: actual {:#018x} ({actual}) != golden {golden:#018x}",
        actual.to_bits()
    );
}

/// Golden loss of the adjoint batch gradient.
const ADJOINT_LOSS_BITS: u64 = 0x3fe7e890d7f4e957;

/// Golden parameter gradient of the adjoint batch gradient.
const ADJOINT_GRAD_BITS: [u64; 6] = [
    0x3fb0e3ec9e6ece8e,
    0x3f901a42aaf73486,
    0x3f825e33d9d86086,
    0xbfb0d32fc1864376,
    0xbd7655c100000000,
    0xbfa8cd4a4aa5cf91,
];

/// Golden for the streamed-adjoint batch gradient (re-pinned when the
/// fused-block engine replaced the per-instruction adjoint sweep; the
/// shift is ULP-level, from fused unitaries and the vectorized one-pass
/// bilinear gradient terms). Must hold at every thread count.
#[test]
fn adjoint_batch_gradient_bits_are_thread_count_invariant() {
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let (features, labels) = golden_batch();
    let g = batch_gradient(
        &model,
        &golden_params(),
        &features,
        &labels,
        GradientMethod::Adjoint,
    );
    assert_bits(g.loss, ADJOINT_LOSS_BITS, "loss");
    assert_eq!(g.gradient.len(), 6);
    for (i, (&gi, &bits)) in g.gradient.iter().zip(&ADJOINT_GRAD_BITS).enumerate() {
        assert_bits(gi, bits, &format!("gradient[{i}]"));
    }
}

/// Golden RepCap of the golden circuit.
const REPCAP_BITS: u64 = 0x3fe541cc092a2ad1;

/// Pre-runtime golden: batched RepCap must reproduce the original
/// sequential per-sample loop bit-for-bit.
#[test]
fn repcap_bits_are_thread_count_invariant() {
    let mut cfg = SearchConfig::for_task(4, 6, 2, 2).fast();
    cfg.repcap_param_inits = 4;
    cfg.repcap_bases = 3;
    let (features, labels) = golden_batch();
    let mut rng = StdRng::seed_from_u64(77);
    let r = repcap::repcap(&golden_circuit(), &features, &labels, &cfg, &mut rng);
    assert_bits(r.repcap, REPCAP_BITS, "repcap");
}

/// Golden CNR of a generated 4q candidate on ibm-lagos.
const CNR_BITS: u64 = 0x3fefa82685dbe586;

/// Post-runtime golden: exact CNR with replica fan-out and per-replica RNG
/// streams split off the caller's generator.
#[test]
fn cnr_bits_are_thread_count_invariant() {
    let device = ibm_lagos();
    let cfg = SearchConfig::for_task(4, 12, 4, 2).fast();
    let mut rng = StdRng::seed_from_u64(11);
    let cand = generate_candidate(&device, &cfg, &mut rng);
    let r = cnr::cnr(&cand, &device, &cfg, &mut rng).unwrap();
    assert_bits(r.cnr, CNR_BITS, "cnr");
}

/// Golden state-vector trajectory distribution.
const TRAJECTORY_DIST_BITS: [u64; 4] = [
    0x3fdb1055b8993922,
    0x3fb3bea91d9b1b7b,
    0x3fb3bea91d9b1b7b,
    0x3fdb1055b8993922,
];

/// Post-runtime golden: state-vector Monte-Carlo trajectories with
/// fixed-chunk parallel shots.
#[test]
fn trajectory_distribution_bits_are_thread_count_invariant() {
    let mut c = Circuit::new(2);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.set_measured(vec![0, 1]);
    let noise = CircuitNoise::uniform(&[1, 2], 2, 0.05, 0.10, 0.01);
    let mut rng = StdRng::seed_from_u64(13);
    // 100 trajectories spans three SHOT_CHUNKs plus a ragged tail.
    let dist = noisy_distribution(&c, &[], &[], &noise, 100, &mut rng);
    assert_eq!(dist.len(), 4);
    for (i, (&d, &bits)) in dist.iter().zip(&TRAJECTORY_DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("dist[{i}]"));
    }
}

/// Golden stabilizer trajectory distribution.
const CLIFFORD_DIST_BITS: [u64; 4] = [
    0x3fdce864020817fd,
    0x3fa8bcdfefbf401d,
    0x3fa8bcdfefbf401d,
    0x3fdce864020817fd,
];

/// Post-runtime golden: stabilizer Monte-Carlo trajectories.
#[test]
fn clifford_trajectory_bits_are_thread_count_invariant() {
    let mut c = Circuit::new(2);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.set_measured(vec![0, 1]);
    let noise = CircuitNoise::uniform(&[1, 2], 2, 0.02, 0.05, 0.01);
    let mut rng = StdRng::seed_from_u64(17);
    let dist = noisy_clifford_distribution(&c, &[], &[], &noise, 100, &mut rng).unwrap();
    assert_eq!(dist.len(), 4);
    for (i, (&d, &bits)) in dist.iter().zip(&CLIFFORD_DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("dist[{i}]"));
    }
}

/// Golden Pauli-frame distribution.
const FRAME_DIST_BITS: [u64; 8] = [
    0x3fc8d8ec95bff046,
    0x3fac9c4da9003eeb,
    0x3fac9c4da9003eeb,
    0x3fc8d8ec95bff046,
    0x3fc8d8ec95bff046,
    0x3fac9c4da9003eeb,
    0x3fac9c4da9003eeb,
    0x3fc8d8ec95bff046,
];

/// Post-runtime golden: the bit-parallel Pauli-frame engine on a workload
/// spanning multiple 64-lane blocks plus a ragged tail. The same call with
/// the same seed must land on these bits at every `ELIVAGAR_THREADS`
/// setting (frame blocks are reduced in block order), and the per-shot
/// tableau reference must produce the identical distribution — the frame
/// engine's exactness contract, pinned on a fixed workload.
#[test]
fn frame_engine_bits_are_thread_count_invariant() {
    let mut c = Circuit::new(5);
    c.push_gate(Gate::H, &[0], &[]);
    for q in 0..4 {
        c.push_gate(Gate::Cx, &[q, q + 1], &[]);
    }
    c.push_gate(Gate::S, &[2], &[]);
    c.push_gate(Gate::H, &[4], &[]);
    c.set_measured(vec![0, 2, 4]);
    let noise = CircuitNoise::uniform(&[1, 2, 2, 2, 2, 1, 1], 3, 0.03, 0.08, 0.02);
    // 200 trajectories spans three full frame blocks plus a ragged tail.
    let mut rng = StdRng::seed_from_u64(23);
    let dist = noisy_clifford_distribution(&c, &[], &[], &noise, 200, &mut rng).unwrap();
    assert_eq!(dist.len(), 8);
    for (i, (&d, &bits)) in dist.iter().zip(&FRAME_DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("frame dist[{i}]"));
    }
    // Cross-engine: the tableau reference reproduces the frame engine's
    // output bit-for-bit from the same seed.
    let mut rng = StdRng::seed_from_u64(23);
    let tableau =
        noisy_clifford_distribution_tableau(&c, &[], &[], &noise, 200, &mut rng).unwrap();
    for (i, (&f, &t)) in dist.iter().zip(&tableau).enumerate() {
        assert_bits(t, f.to_bits(), &format!("tableau dist[{i}] vs frame"));
    }
}

/// Composite score of the golden search's winner (see
/// [`search_best_score_bits_are_thread_count_invariant`]).
const SEARCH_BEST_SCORE_BITS: u64 = 0x3fe556f7d083abaa;

fn golden_search_task() -> (elivagar_device::Device, elivagar_datasets::Dataset, SearchConfig) {
    let device = ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 6;
    (device, dataset, config)
}

/// Post-runtime golden: the full search pipeline (candidate generation,
/// CNR fan-out, rejection, RepCap fan-out, composite scoring) lands on the
/// same winner with the same score bits.
#[test]
fn search_best_score_bits_are_thread_count_invariant() {
    let (device, dataset, config) = golden_search_task();
    let result = search::search(&device, &dataset, &config);
    let best = result.scored[0].score.expect("sorted by score");
    assert_bits(best, SEARCH_BEST_SCORE_BITS, "best composite score");
}

/// Funnel conservation: every generated candidate is accounted for at each
/// pipeline stage, and the counts themselves are goldens — the same at
/// every `ELIVAGAR_THREADS` setting (`scripts/verify.sh` reruns this file
/// at 1/2/4 threads), because CNR accept/reject decisions compare
/// bit-identical f64s.
#[test]
fn search_funnel_counters_are_thread_count_invariant() {
    let (device, dataset, config) = golden_search_task();
    let result = search::search(&device, &dataset, &config);
    let funnel = &result.stats.funnel;
    assert_eq!(funnel.invariant_violation(), None);
    // generated == routed + unrouted (and a successful run has no
    // unrouted candidates — they abort the search).
    assert_eq!(funnel.generated, funnel.routed + funnel.unrouted);
    assert_eq!(
        funnel.routed,
        funnel.cnr_accepted + funnel.cnr_rejected + funnel.cnr_quarantined
    );
    // Golden funnel for `golden_search_task` (6 candidates, CNR keep
    // fraction from `fast()`): pinned exactly, like the score bits above.
    assert_eq!(funnel.generated, 6, "generated");
    assert_eq!(funnel.routed, 6, "routed");
    assert_eq!(funnel.unrouted, 0, "unrouted");
    assert_eq!(
        (funnel.cnr_accepted, funnel.cnr_rejected, funnel.cnr_quarantined),
        GOLDEN_FUNNEL_CNR,
        "CNR funnel (accepted, rejected, quarantined)"
    );
    assert_eq!(funnel.repcap_quarantined, 0, "repcap quarantined");
    assert_eq!(funnel.score_quarantined, 0, "score quarantined");
}

/// Golden CNR-stage funnel of [`golden_search_task`]:
/// `(accepted, rejected, quarantined)`.
const GOLDEN_FUNNEL_CNR: (u64, u64, u64) = (3, 3, 0);

/// Kill-and-resume property: interrupting the golden search at any stage
/// boundary and resuming from the journal must reproduce the exact golden
/// ranking — at every thread count (`scripts/verify.sh` reruns this file
/// with `ELIVAGAR_THREADS=1/2/4`), and regardless of where the kill fell.
#[test]
fn search_kill_and_resume_reproduces_golden_ranking() {
    let (device, dataset, config) = golden_search_task();
    let baseline = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("baseline");
    assert_bits(
        baseline.scored[0].score.expect("sorted by score"),
        SEARCH_BEST_SCORE_BITS,
        "baseline best composite score",
    );

    let mut path = std::env::temp_dir();
    path.push(format!("elivagar-bench-resume-{}", std::process::id()));
    // 6 CNR records then up to 6 RepCap records: stopping at 1/3/5 lands
    // mid-CNR; 7 lands mid-RepCap.
    for stop_after in [1, 3, 5, 7] {
        let _ = std::fs::remove_file(&path);
        let err = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_stop_after_records(stop_after),
        )
        .expect_err("stops mid-search");
        assert!(matches!(err, search::SearchError::Interrupted { .. }));

        let resumed = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_resume(path.clone()),
        )
        .expect("resumed run completes");
        assert_eq!(resumed, baseline, "kill after {stop_after} records");
        for (i, (a, b)) in resumed.scored.iter().zip(baseline.scored.iter()).enumerate() {
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "scored[{i}] after killing at {stop_after} records"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Composite score of the NSGA-II golden run's winner and its front size
/// (see [`nsga2_front_bits_are_thread_count_invariant`]).
const NSGA2_BEST_SCORE_BITS: u64 = 0x3fe8bcbfbe822053;
const NSGA2_FRONT_SIZE: usize = 6;

/// The golden search task evolved with NSGA-II: population 6 for 2
/// generations (3 rounds × 6 candidates = 18 evaluations).
fn golden_nsga2_task() -> (elivagar_device::Device, elivagar_datasets::Dataset, SearchConfig) {
    let (device, dataset, config) = golden_search_task();
    let config =
        config.with_nsga2(Nsga2Config::default().with_population(6).with_generations(2));
    (device, dataset, config)
}

/// NSGA-II golden: tournament selection, crossover/mutation, fast
/// non-dominated sorting, and crowding distances all reduce over
/// bit-identical f64s, so the evolved winner and the Pareto front are
/// thread-count invariant (`scripts/verify.sh` reruns this at
/// `ELIVAGAR_THREADS=1/2/4`).
#[test]
fn nsga2_front_bits_are_thread_count_invariant() {
    let (device, dataset, config) = golden_nsga2_task();
    let result = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("nsga2 golden run");
    assert_bits(
        result.scored[0].score.expect("sorted by score"),
        NSGA2_BEST_SCORE_BITS,
        "nsga2 best composite score",
    );
    let front = result.pareto.expect("nsga2 surfaces a front");
    assert_eq!(front.members.len(), NSGA2_FRONT_SIZE, "front size");
    assert!(front.members.len() >= 2, "front must be non-degenerate");
    for a in &front.members {
        for b in &front.members {
            assert!(
                !a.objectives.dominates(&b.objectives),
                "members {} and {} are not mutually non-dominated",
                a.index,
                b.index
            );
        }
    }
    assert_eq!(result.scored.len(), 18, "3 rounds x population 6");
}

/// Kill-and-resume across generation boundaries: interrupting the NSGA-II
/// evolution at any journal size — mid-CNR of the initial population,
/// exactly at a generation boundary, or mid-RepCap of a later generation
/// — and resuming must replay the evolution bit for bit. The journal
/// layout is 6 CNR + 6 RepCap records per round plus one `Generation`
/// marker after rounds 0 and 1 (38 records total).
#[test]
fn nsga2_kill_and_resume_reproduces_golden_front() {
    let (device, dataset, config) = golden_nsga2_task();
    let baseline = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("baseline");
    assert_bits(
        baseline.scored[0].score.expect("sorted by score"),
        NSGA2_BEST_SCORE_BITS,
        "nsga2 baseline best composite score",
    );

    let mut path = std::env::temp_dir();
    path.push(format!("elivagar-bench-nsga2-resume-{}", std::process::id()));
    for stop_after in [3, 13, 15, 24, 30] {
        let _ = std::fs::remove_file(&path);
        let err = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_stop_after_records(stop_after),
        )
        .expect_err("stops mid-evolution");
        assert!(matches!(err, search::SearchError::Interrupted { .. }));

        let resumed = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_resume(path.clone()),
        )
        .expect("resumed evolution completes");
        assert_eq!(resumed, baseline, "kill after {stop_after} records");
        let (rf, bf) = (
            resumed.pareto.as_ref().expect("front"),
            baseline.pareto.as_ref().expect("front"),
        );
        assert_eq!(rf.members.len(), bf.members.len());
        for (a, b) in rf.members.iter().zip(bf.members.iter()) {
            assert_eq!(a.index, b.index, "front membership after killing at {stop_after}");
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "front scores must be bit-identical after killing at {stop_after}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// In-process repeatability: a warm pool (and warm workspace arenas) must
/// not change any result relative to the first, cold evaluation.
#[test]
fn repeated_evaluations_are_bit_identical_in_process() {
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let (features, labels) = golden_batch();
    let params = golden_params();
    let first = batch_gradient(&model, &params, &features, &labels, GradientMethod::Adjoint);
    for _ in 0..3 {
        let again =
            batch_gradient(&model, &params, &features, &labels, GradientMethod::Adjoint);
        assert_eq!(first, again);
    }

    let mut cfg = SearchConfig::for_task(4, 6, 2, 2).fast();
    cfg.repcap_param_inits = 4;
    cfg.repcap_bases = 3;
    let r1 = repcap::repcap(
        &golden_circuit(),
        &features,
        &labels,
        &cfg,
        &mut StdRng::seed_from_u64(77),
    );
    let r2 = repcap::repcap(
        &golden_circuit(),
        &features,
        &labels,
        &cfg,
        &mut StdRng::seed_from_u64(77),
    );
    assert_eq!(r1, r2);
}

/// Digest of every golden in this file together with the result cache's
/// `ENGINE_SALT` (FNV-1a over their little-endian words; see
/// [`goldens_are_pinned_to_the_engine_salt`]).
const GOLDENS_AND_SALT_DIGEST: u64 = 0x7e07_d56f_9e37_62bb;

/// Cached CNR/RepCap/routing results are keyed by `ENGINE_SALT`, so any
/// change that moves a golden's bits must also bump the salt — otherwise
/// a warm cache would keep serving the old engine's numbers. Re-pinning a
/// golden changes this digest; re-pin [`GOLDENS_AND_SALT_DIGEST`] only in
/// the same change that bumps `ENGINE_SALT`.
#[test]
fn goldens_are_pinned_to_the_engine_salt() {
    let mut words = vec![ENGINE_SALT, ADJOINT_LOSS_BITS];
    words.extend(ADJOINT_GRAD_BITS);
    words.extend([REPCAP_BITS, CNR_BITS]);
    words.extend(TRAJECTORY_DIST_BITS);
    words.extend(CLIFFORD_DIST_BITS);
    words.extend(FRAME_DIST_BITS);
    words.extend([SEARCH_BEST_SCORE_BITS, GOLDEN_FUNNEL_CNR.0, GOLDEN_FUNNEL_CNR.1]);
    words.extend([GOLDEN_FUNNEL_CNR.2, NSGA2_BEST_SCORE_BITS, NSGA2_FRONT_SIZE as u64]);
    let digest = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(
        digest, GOLDENS_AND_SALT_DIGEST,
        "goldens or ENGINE_SALT changed ({digest:#018x}): a re-pinned golden needs a bumped \
         ENGINE_SALT, and both move together with this digest"
    );
}
