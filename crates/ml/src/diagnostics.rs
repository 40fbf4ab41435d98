//! Trainability diagnostics: barren-plateau detection via gradient
//! variance.
//!
//! The paper motivates circuit search partly by the practical failure
//! modes of hand-designed circuits — vanishing gradients among them
//! (McClean et al. 2018). This module measures the variance of a circuit's
//! loss gradient over random parameter initializations; an exponentially
//! small variance is the barren-plateau signature.

use crate::model::QuantumClassifier;
use elivagar_sim::{AdjointProgram, Gradients, ZObservable};
use rand::Rng;

/// Summary of a gradient-variance probe.
#[derive(Clone, Debug, PartialEq)]
pub struct GradientVariance {
    /// Variance of each parameter's gradient over the sampled
    /// initializations.
    pub per_parameter: Vec<f64>,
    /// Mean of the per-parameter variances (the quantity that decays
    /// exponentially with qubit count on a barren plateau).
    pub mean: f64,
}

/// Estimates the gradient variance of `<O>` over `num_samples` uniform
/// random parameter draws.
///
/// # Panics
///
/// Panics if `num_samples < 2` or the model has no trainable parameters.
pub fn gradient_variance<R: Rng + ?Sized>(
    model: &QuantumClassifier,
    observable: &ZObservable,
    features: &[f64],
    num_samples: usize,
    rng: &mut R,
) -> GradientVariance {
    assert!(num_samples >= 2, "variance needs at least two samples");
    let p = model.num_params();
    assert!(p > 0, "model has no trainable parameters");
    let mut sums = vec![0.0; p];
    let mut sq_sums = vec![0.0; p];
    let program = AdjointProgram::compile_params_only(model.circuit());
    let mut g = Gradients { expectation: 0.0, params: Vec::new(), features: Vec::new() };
    for _ in 0..num_samples {
        let theta: Vec<f64> = (0..p)
            .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect();
        program.gradient_into(&theta, features, observable, &mut g);
        for (k, &gi) in g.params.iter().enumerate() {
            sums[k] += gi;
            sq_sums[k] += gi * gi;
        }
    }
    let n = num_samples as f64;
    let per_parameter: Vec<f64> = sums
        .iter()
        .zip(&sq_sums)
        .map(|(&s, &sq)| (sq / n - (s / n).powi(2)).max(0.0))
        .collect();
    let mean = per_parameter.iter().sum::<f64>() / p as f64;
    GradientVariance { per_parameter, mean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::templates::append_strongly_entangling_layers;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deep_model(num_qubits: usize, layers: usize) -> QuantumClassifier {
        let mut c = Circuit::new(num_qubits);
        append_strongly_entangling_layers(&mut c, layers, 0);
        c.set_measured(vec![0]);
        QuantumClassifier::new(c, 2)
    }

    #[test]
    fn single_rotation_has_known_variance() {
        // d<Z>/dtheta = -sin(theta); Var over uniform theta = 1/2.
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        c.set_measured(vec![0]);
        let model = QuantumClassifier::new(c, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let v = gradient_variance(&model, &ZObservable::z(0), &[], 800, &mut rng);
        assert!((v.mean - 0.5).abs() < 0.06, "variance {}", v.mean);
    }

    #[test]
    fn gradient_variance_decays_with_width_for_deep_circuits() {
        // The barren-plateau signature: deep unstructured circuits lose
        // gradient signal as qubits are added.
        let mut rng = StdRng::seed_from_u64(2);
        let narrow = gradient_variance(
            &deep_model(2, 4),
            &ZObservable::z(0),
            &[],
            120,
            &mut rng,
        );
        let wide = gradient_variance(
            &deep_model(6, 4),
            &ZObservable::z(0),
            &[],
            120,
            &mut rng,
        );
        assert!(
            wide.mean < narrow.mean / 2.0,
            "narrow {} vs wide {}",
            narrow.mean,
            wide.mean
        );
    }

    #[test]
    fn per_parameter_shape_matches_model() {
        let model = deep_model(3, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let v = gradient_variance(&model, &ZObservable::z(0), &[], 10, &mut rng);
        assert_eq!(v.per_parameter.len(), model.num_params());
        assert!(v.per_parameter.iter().all(|&x| x >= 0.0));
    }
}
