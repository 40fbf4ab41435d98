//! Umbrella crate re-exporting the Elivagar reproduction public API.
pub use elivagar;
// The execution pipeline most consumers want by name: the fused
// batch-execution programs.
pub use elivagar_sim::{BoundProgram, Program};
pub use elivagar_baselines as baselines;
pub use elivagar_circuit as circuit;
pub use elivagar_compiler as compiler;
pub use elivagar_datasets as datasets;
pub use elivagar_device as device;
pub use elivagar_ml as ml;
pub use elivagar_sim as sim;
