//! Content-addressed two-tier result cache for the Elivagar pipeline.
//!
//! CNR trajectory batches, RepCap similarity matrices, and SABRE routing
//! are pure functions of (circuit IR, device snapshot, configuration,
//! derived seed) — and candidate generation produces heavy template
//! overlap across runs, NSGA-II generations, and tenants searching the
//! same device. This crate memoizes those evaluations behind a
//! [`CacheHandle`]:
//!
//! * [`durable`] — the checksummed, atomically renamed file format that
//!   cache entries, search checkpoints and serve result files share
//!   ([`write_checksummed`] / [`parse_checksummed`]).
//! * [`key`] — canonical [`CacheKey`] fingerprints. A key covers every
//!   input that can change the memoized bits, plus the [`ENGINE_SALT`]
//!   version stamp, so a hit is *substitutable*: the cached payload is
//!   bit-identical to what recomputation would produce.
//! * [`store`] — the two-tier [`Cache`]: an in-memory LRU in front of a
//!   persistent directory of CRC-footed entries. Any on-disk failure
//!   mode (truncation, bit flip, stale engine salt, misfiled entry)
//!   degrades to a counted recompute, never a wrong answer.
//!
//! The cache is wired behind `RunOptions::with_cache` in the search
//! engine (`--cache <dir>` in the CLI, `cache_dir` in serve job specs)
//! and is **off by default**: an absent handle costs nothing.
//!
//! Observability: `cache.lookups/hits/misses/stores/evictions/
//! corrupt_discarded` counters and the `cache_lookup` latency histogram
//! (see `elivagar-obs`), satisfying `lookups = hits + misses`.

pub mod codec;
pub mod durable;
pub mod key;
pub mod store;

pub use codec::{decode_cached_value, encode_cached_value};
pub use durable::{crc32, parse_checksummed, write_checksummed, FooterError, WriteError};
pub use key::{CacheKey, KeyBuilder, ENGINE_SALT};
pub use store::{Cache, CacheError, CacheHandle, DEFAULT_MEMORY_ENTRIES};
