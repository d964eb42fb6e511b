//! Result aggregation, normalization and paper-style rendering.
//!
//! The paper presents every application as a *triptych* (Figures 3, 4, 6,
//! 7): normalized execution time (busy / read stall / write stall),
//! normalized message counts (read / write / other), and normalized global
//! read misses by home-state class — each as three bars (Baseline, AD, LS)
//! normalized to Baseline = 100. Figure 5 shows invalidation traffic
//! (ownership acquisitions vs invalidation messages) across processor
//! counts. This crate renders all of those as aligned ASCII charts and
//! exports machine-readable JSON for EXPERIMENTS.md.
//!
//! [`analysis`] is the trace analyzer behind `ccsim analyze`: it labels
//! each block of a captured access trace with the paper's sharing pattern
//! and takes the exact LS counters from the engine's own replay of that
//! trace, summarized as an [`AnalysisSummary`].

pub mod analysis;
pub mod export;
pub mod figures;
pub mod normalized;

pub use analysis::analyze;
pub use export::{
    AnalysisSummary, ChaosSummary, ModelCheckSummary, RaceSummary, RunSummary, ServeClassLatency,
    ServeRow, ServeSummary, VerifySummary, SERVE_SCHEMA,
};
pub use figures::{render_fig5, render_table2, render_table3, render_table4, render_triptych};
pub use normalized::{NormalizedRun, Triptych};
