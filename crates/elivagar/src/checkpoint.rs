//! Crash-safe journaling of search progress.
//!
//! A multi-hour search over thousands of candidates must survive a
//! process kill without losing completed work. [`run_search`] journals
//! every finished per-candidate stage evaluation (CNR, RepCap — value,
//! execution count, or quarantine reason) into a [`Journal`] and
//! periodically persists it with [`save`] in the durable checksummed
//! format of `elivagar_cache::durable`: the serialized journal plus a
//! CRC32 footer goes to a sibling temp file, which is fsynced, atomically
//! renamed over the target path, and followed by a best-effort fsync of
//! the parent directory so the rename itself survives a crash.
//!
//! A reader therefore sees either the previous complete journal or the
//! new complete journal — never a torn mix — and [`load`] verifies the
//! CRC32 footer so a truncated or bit-flipped file is rejected as
//! [`CheckpointError::Corrupt`] instead of resuming from garbage.
//!
//! Stage values are stored as `f64::to_bits` integers, not JSON floats,
//! so a resumed search reconstructs *bit-identical* predictor values:
//! combined with the deterministic per-candidate seed splitting of the
//! runtime, a resumed search lands on exactly the ranking an
//! uninterrupted run produces.
//!
//! The journal is keyed by a [`Fingerprint`] of the search configuration;
//! resuming against a different config, seed, or candidate count is a
//! [`CheckpointError::Mismatch`].
//!
//! [`run_search`]: crate::search::run_search

use crate::config::SearchConfig;
use crate::search::SearchStage;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::Path;

/// Identity of the search a journal belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// The search seed.
    pub seed: u64,
    /// Candidate pool size.
    pub num_candidates: usize,
    /// FNV-1a hash over the full config (every hyperparameter).
    pub config_hash: u64,
}

impl Fingerprint {
    /// Fingerprints a search configuration.
    pub fn of(config: &SearchConfig) -> Self {
        // The derived Debug form covers every field, so any hyperparameter
        // change (which would change evaluation results) changes the hash.
        let repr = format!("{config:?}");
        let config_hash = repr
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
        Fingerprint {
            seed: config.seed,
            num_candidates: config.num_candidates,
            config_hash,
        }
    }

    /// Folds a label (e.g. the search strategy's name) into the config
    /// hash, so journals written under different labels never resume
    /// each other even when the configs agree.
    pub fn salted(mut self, label: &str) -> Self {
        let salt = label
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
        self.config_hash ^= salt;
        self
    }
}

/// One completed per-candidate stage evaluation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Which pipeline stage completed.
    pub stage: SearchStage,
    /// Candidate index within the generated pool.
    pub index: usize,
    /// `f64::to_bits` of the stage value (CNR or RepCap); `None` when the
    /// candidate was quarantined at this stage.
    pub value_bits: Option<u64>,
    /// Circuit executions the evaluation consumed (0 for quarantined
    /// candidates — their work is discarded).
    pub executions: u64,
    /// Quarantine reason, when the candidate faulted at this stage.
    pub quarantine: Option<String>,
}

/// The journal: search identity plus completed stage records in the order
/// they finished.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    /// Identity of the search this journal belongs to.
    pub fingerprint: Fingerprint,
    /// Completed evaluations, appended as stages finish.
    pub records: Vec<StageRecord>,
}

impl Journal {
    /// An empty journal for a fresh search.
    pub fn new(fingerprint: Fingerprint) -> Self {
        Journal {
            fingerprint,
            records: Vec::new(),
        }
    }

    /// The record for `(stage, index)`, if that evaluation completed.
    pub fn lookup(&self, stage: SearchStage, index: usize) -> Option<&StageRecord> {
        self.records
            .iter()
            .find(|r| r.stage == stage && r.index == index)
    }

    /// Appends a record unless `(stage, index)` is already journaled.
    pub fn push(&mut self, record: StageRecord) {
        if self.lookup(record.stage, record.index).is_none() {
            self.records.push(record);
        }
    }

    /// Number of journaled records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Why a checkpoint could not be written, read, or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io {
        /// Path the operation targeted.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The file exists but is torn, truncated, or fails its checksum.
    Corrupt {
        /// Path of the rejected file.
        path: String,
        /// What check failed.
        reason: String,
    },
    /// The journal belongs to a different search configuration.
    Mismatch {
        /// Human-readable description of the disagreement.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O failure at {path}: {message}")
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint at {path} is corrupt: {reason}")
            }
            CheckpointError::Mismatch { reason } => {
                write!(f, "checkpoint does not match this search: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

// ---- save / load -----------------------------------------------------------

/// Atomically persists a journal in the durable checksummed format
/// (`elivagar_cache::write_checksummed`: write-temp, fsync, rename,
/// fsync-dir). The file body is the JSON journal followed by one footer
/// line holding the CRC32 of the body in hex.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure. The target
/// path is never left torn: on error the previous checkpoint (if any) is
/// still intact.
pub fn save(path: &Path, journal: &Journal) -> Result<(), CheckpointError> {
    let _span = elivagar_obs::span!("checkpoint_save", records = journal.len());
    let sw = elivagar_obs::metrics::Stopwatch::start();
    let body = serde_json::to_string(journal).map_err(|e| CheckpointError::Corrupt {
        path: path.display().to_string(),
        reason: format!("journal failed to serialize: {e:?}"),
    })?;
    let len = elivagar_cache::write_checksummed(path, body.as_bytes())
        .map_err(|e| io_err(&e.path, &e.source))?;
    elivagar_obs::metrics::CHECKPOINT_SAVES.add(1);
    elivagar_obs::metrics::CHECKPOINT_BYTES.add(len);

    // Chaos hook: simulate a torn write that the atomic protocol failed to
    // prevent (e.g. a dishonest disk) by chopping the committed file.
    if elivagar_sim::faultpoint::wants_truncation("checkpoint::commit", journal.len() as u64) {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.set_len(len / 2).map_err(|e| io_err(path, &e))?;
    }
    sw.record(&elivagar_obs::metrics::CHECKPOINT_SAVE_NS);
    Ok(())
}

/// Loads and verifies a journal written by [`save`].
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if the file cannot be read and
/// [`CheckpointError::Corrupt`] if the footer is missing, malformed, or
/// the CRC32 does not match the body.
pub fn load(path: &Path) -> Result<Journal, CheckpointError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let body = elivagar_cache::parse_checksummed(text.as_bytes())
        .map_err(|e| corrupt(path, e.to_string()))?;
    // The body ends just before an ASCII newline, so it is a char-boundary
    // prefix of the text.
    serde_json::from_str(&text[..body.len()])
        .map_err(|e| corrupt(path, format!("journal failed to parse: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("elivagar-ckpt-{}-{name}", std::process::id()));
        p
    }

    fn sample_journal() -> Journal {
        let config = SearchConfig::for_task(3, 8, 2, 2).fast().with_seed(9);
        let mut j = Journal::new(Fingerprint::of(&config));
        j.push(StageRecord {
            stage: SearchStage::Cnr,
            index: 0,
            value_bits: Some(0.8125f64.to_bits()),
            executions: 8,
            quarantine: None,
        });
        j.push(StageRecord {
            stage: SearchStage::Cnr,
            index: 1,
            value_bits: None,
            executions: 0,
            quarantine: Some("injected panic".to_string()),
        });
        j.push(StageRecord {
            stage: SearchStage::RepCap,
            index: 0,
            value_bits: Some((-0.25f64).to_bits()),
            executions: 16,
            quarantine: None,
        });
        j
    }

    #[test]
    fn save_load_roundtrips_bit_exactly() {
        let path = scratch("roundtrip");
        let journal = sample_journal();
        save(&path, &journal).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, journal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = scratch("truncated");
        save(&path, &sample_journal()).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        for keep in [0, 5, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = load(&path).expect_err("truncation must be detected");
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "keep {keep}: {err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_rejected() {
        let path = scratch("bitflip");
        save(&path, &sample_journal()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).expect_err("bit flip must be detected");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/elivagar.ckpt")).expect_err("no file");
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
    }

    #[test]
    fn fingerprint_tracks_every_config_field() {
        let base = SearchConfig::for_task(3, 8, 2, 2);
        let same = Fingerprint::of(&SearchConfig::for_task(3, 8, 2, 2));
        assert_eq!(Fingerprint::of(&base), same);
        assert_ne!(Fingerprint::of(&base), Fingerprint::of(&base.clone().with_seed(1)));
        let mut tweaked = base.clone();
        tweaked.cnr_threshold = 0.71;
        assert_ne!(Fingerprint::of(&base), Fingerprint::of(&tweaked));
        let mut budgeted = base;
        budgeted.eval_budget = Some(100);
        assert_ne!(Fingerprint::of(&budgeted).config_hash, same.config_hash);
    }

    #[test]
    fn push_deduplicates_by_stage_and_index() {
        let mut j = sample_journal();
        let before = j.len();
        j.push(StageRecord {
            stage: SearchStage::Cnr,
            index: 0,
            value_bits: Some(0.5f64.to_bits()),
            executions: 99,
            quarantine: None,
        });
        assert_eq!(j.len(), before);
        assert_eq!(
            j.lookup(SearchStage::Cnr, 0).unwrap().value_bits,
            Some(0.8125f64.to_bits())
        );
    }
}
