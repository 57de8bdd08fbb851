//! # secpb-mem — memory-system substrate for the SecPB simulator
//!
//! The cache hierarchy, memory controller, and NVM model underneath the
//! SecPB (Figure 5 of the paper):
//!
//! * [`cache`] — a set-associative, LRU cache used for the L1/L2/L3 data
//!   caches *and* the three metadata caches, with the special
//!   *persist-dirty* line state whose LLC eviction is silently discarded
//!   (Section IV-C(a): blocks guaranteed durable by the SecPB need no
//!   write-back),
//! * [`hierarchy`] — the three-level data-cache stack with miss/fill/
//!   writeback accounting,
//! * [`nvm`] — PCM timing (55 ns reads / 150 ns writes, banked) and the
//!   read/write queues of Table I,
//! * [`wpq`] — the ADR write-pending queue inside the memory controller,
//! * [`metadata`] — the counter/MAC/BMT-node metadata caches at the MC,
//! * [`store`] — the *functional* persistent state: ciphertext blocks,
//!   packed counter blocks, truncated MACs, and the persisted BMT root,
//!   with tamper-injection hooks for the recovery tests.
//!
//! Timing and function are deliberately separated: caches and queues model
//! *when* things happen, [`store::NvmStore`] models *what* is durable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod metadata;
pub mod nvm;
pub mod store;
pub mod wpq;

pub use cache::{Cache, LineState};
pub use hierarchy::Hierarchy;
pub use metadata::MetadataCaches;
pub use nvm::NvmTiming;
pub use store::NvmStore;
pub use wpq::WritePendingQueue;
