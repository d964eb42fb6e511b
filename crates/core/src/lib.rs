//! The paper's contribution: directory-based write-invalidate coherence with
//! the **LS (load-store)** protocol extension, next to the **AD** (adaptive
//! migratory, Stenström et al. ISCA '93) and **Baseline** (DASH-like)
//! protocols it is evaluated against.
//!
//! # Model
//!
//! The home node of every memory block runs a full-map directory. This crate
//! implements the *home-side* state machine; cache-side states (`I/S/X/M`)
//! live in `ccsim-cache`, and the simulation engine mediates between the two
//! (forwards, invalidation fan-out, latency/traffic accounting).
//!
//! Home states (paper Figure 1):
//!
//! | Paper state | Here |
//! |---|---|
//! | Uncached | [`HomeState::Uncached`] |
//! | Shared | [`HomeState::Shared`] |
//! | Dirty | [`HomeState::Owned`] with LS/migratory tag clear |
//! | Load-Store | [`HomeState::Owned`] with the tag set |
//!
//! `Owned` covers both because the home cannot tell whether an exclusively
//! granted (`LStemp`) copy has been silently written; it finds out when it
//! forwards the next request to the owner.
//!
//! # LS detection (§3, §3.1)
//!
//! Per block the directory keeps a *last reader* field `LR` (`log2 N` bits
//! plus a valid bit) and one *LS-bit*:
//!
//! * every **global read** sets `LR := requester`;
//! * every **ownership acquisition** (upgrade or write miss) compares its
//!   source with `LR`: equal → the block is tagged LS; different or invalid
//!   → the block is de-tagged (unless the §5.5 *keep* heuristic is enabled);
//!   afterwards `LR` is invalidated, so an intervening foreign write breaks
//!   read→write pairing exactly as the paper's sequence definition requires;
//! * a **foreign access reaching an owner that has not written** its
//!   exclusive copy de-tags the block (`NotLS`, §3.1 case 2);
//! * **replacement** of the exclusive copy returns the block to `Uncached`
//!   but *keeps the LS-bit* (§3.1 case 3) — the decisive advantage over
//!   migratory-only detection when caches are small.
//!
//! Reads of an LS-tagged block return an **exclusive** copy, so the upcoming
//! write completes locally with no ownership acquisition and no
//! invalidations.
//!
//! # AD detection
//!
//! AD tags a block migratory when an ownership acquisition from node `p`
//! finds exactly two cached copies, `p` being one of them and the other being
//! the block's previous writer — the classical migratory pattern. Migratory
//! blocks are granted exclusively on reads, like LS. The tag reverts on a
//! write miss (write not preceded by a read) or when a foreign read reaches
//! an owner that never wrote its copy. AD has no `LR` field and no tag
//! persistence across the *detection* pattern, so conflict/capacity
//! evictions that break the two-copy pattern silently disable it — the
//! effect the paper demonstrates on Cholesky and OLTP.

pub mod entry;
pub mod outcome;
pub mod rules;
pub mod stats;
pub mod table;

pub use entry::{DirEntry, Fig1State, HomeState, SharerSet};
pub use outcome::{
    GrantKind, OwnerAction, ReadMissClass, ReadResolution, ReadStep, WriteResolution, WriteStep,
};
pub use rules::{AcquirePurpose, CopyState, LocalReadExcl, LocalStore, SafetyRule};
pub use stats::DirStats;
pub use table::DirTable;
