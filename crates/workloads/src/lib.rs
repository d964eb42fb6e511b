//! The four benchmark workloads of the paper's evaluation (§4.1), re-built
//! as real parallel programs on simulated shared memory.
//!
//! | Paper workload | Here | Dominant sharing behaviour |
//! |---|---|---|
//! | MP3D (SPLASH), 10k particles, 10 steps | [`mp3d`] | migratory read-modify-writes of space cells |
//! | Cholesky (SPLASH-2), tk15.0 | [`cholesky`] | non-migratory load-store sequences broken by capacity evictions; task-queue migration grows with P |
//! | LU (SPLASH-2), 256×256 | [`lu`] | per-owner load-store sequences + false sharing at block borders |
//! | OLTP: MySQL/TPC-B on SparcLinux | [`oltp`] | diverse: migratory locks, writes to read-shared metadata, huge working set |
//!
//! Each workload exposes a parameter struct with `paper()` (the sizes used
//! in the paper, where feasible) and `quick()` (scaled for unit tests)
//! constructors, plus a `build` function that lays out simulated memory and
//! spawns one program per processor into a [`SimBuilder`].
//!
//! [`run_spec`] is the single entry point the benchmark harness uses.

pub mod cholesky;
pub mod lu;
pub mod mp3d;
pub mod oltp;

use ccsim_engine::{EventLog, RunStats, SimBuilder, Trace};
use ccsim_types::MachineConfig;
use ccsim_util::{FromJson, Json, ToJson};

/// A workload selection with parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Spec {
    Mp3d(mp3d::Mp3dParams),
    Lu(lu::LuParams),
    Cholesky(cholesky::CholeskyParams),
    Oltp(oltp::OltpParams),
}

impl Spec {
    pub fn name(&self) -> &'static str {
        match self {
            Spec::Mp3d(_) => "MP3D",
            Spec::Lu(_) => "LU",
            Spec::Cholesky(_) => "Cholesky",
            Spec::Oltp(_) => "OLTP",
        }
    }
}

impl ToJson for Spec {
    fn to_json(&self) -> Json {
        let params = match self {
            Spec::Mp3d(p) => p.to_json(),
            Spec::Lu(p) => p.to_json(),
            Spec::Cholesky(p) => p.to_json(),
            Spec::Oltp(p) => p.to_json(),
        };
        Json::obj(vec![
            ("workload", self.name().to_json()),
            ("params", params),
        ])
    }
}

impl FromJson for Spec {
    fn from_json(j: &Json) -> Result<Self, String> {
        let params = j.req("params")?;
        match j.field::<String>("workload")?.as_str() {
            "MP3D" => Ok(Spec::Mp3d(FromJson::from_json(params)?)),
            "LU" => Ok(Spec::Lu(FromJson::from_json(params)?)),
            "Cholesky" => Ok(Spec::Cholesky(FromJson::from_json(params)?)),
            "OLTP" => Ok(Spec::Oltp(FromJson::from_json(params)?)),
            other => Err(format!("unknown workload `{other}`")),
        }
    }
}

/// Lay out `spec`'s memory and spawn its programs into `b`.
fn build(b: &mut SimBuilder, spec: &Spec) {
    match spec {
        Spec::Mp3d(p) => mp3d::build(b, p),
        Spec::Lu(p) => {
            lu::build(b, p);
        }
        Spec::Cholesky(p) => {
            cholesky::build(b, p);
        }
        Spec::Oltp(p) => {
            oltp::build(b, p);
        }
    }
}

/// Build and run one workload on one machine configuration.
pub fn run_spec(cfg: MachineConfig, spec: &Spec) -> RunStats {
    let mut b = SimBuilder::new(cfg);
    build(&mut b, spec);
    b.run()
}

/// Like [`run_spec`], but also capture the executed access stream — the
/// input of the static trace analyzer (`ccsim analyze`).
pub fn capture_spec(cfg: MachineConfig, spec: &Spec) -> (RunStats, Trace) {
    let mut b = SimBuilder::new(cfg);
    b.capture_trace();
    build(&mut b, spec);
    let mut done = b.run_full();
    let trace = done
        .take_trace()
        // ccsim-lint: allow(unwrap): capture_trace() was called before the run
        .expect("trace capture was enabled");
    (done.stats, trace)
}

/// Like [`run_spec`], but also capture the coherence event log — the input
/// of the happens-before / SC-conformance analyzer (`ccsim race`).
pub fn capture_events_spec(cfg: MachineConfig, spec: &Spec) -> (RunStats, EventLog) {
    let mut b = SimBuilder::new(cfg);
    b.capture_events();
    build(&mut b, spec);
    let mut done = b.run_full();
    let log = done
        .take_event_log()
        // ccsim-lint: allow(unwrap): capture_events() was called before the run
        .expect("event capture was enabled");
    (done.stats, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::ProtocolKind;

    #[test]
    fn spec_names_are_the_paper_labels() {
        assert_eq!(Spec::Mp3d(mp3d::Mp3dParams::quick()).name(), "MP3D");
        assert_eq!(Spec::Lu(lu::LuParams::quick()).name(), "LU");
        assert_eq!(
            Spec::Cholesky(cholesky::CholeskyParams::quick()).name(),
            "Cholesky"
        );
        assert_eq!(Spec::Oltp(oltp::OltpParams::quick()).name(), "OLTP");
    }

    #[test]
    fn run_spec_drives_every_workload() {
        // Minimal sizes: this is a plumbing test, not a performance run.
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let mut mp = mp3d::Mp3dParams::quick();
        mp.particles = 40;
        mp.steps = 1;
        let s = run_spec(cfg, &Spec::Mp3d(mp));
        assert!(s.exec_cycles > 0);
        assert_eq!(s.protocol, ProtocolKind::Ls);

        let mut ch = cholesky::CholeskyParams::quick();
        ch.cols = 8;
        ch.col_words = 16;
        ch.waves = 1;
        let s = run_spec(cfg, &Spec::Cholesky(ch));
        assert!(s.dir.global_reads > 0);
    }

    #[test]
    fn paper_params_match_section_4_1() {
        // "MP3D was run for 10 time steps with 10 k particles"
        let p = mp3d::Mp3dParams::paper();
        assert_eq!(p.particles, 10_000);
        assert_eq!(p.steps, 10);
        // "LU with a 256x256 matrix" (full variant; default is reduced).
        assert_eq!(lu::LuParams::paper_full().n, 256);
        // OLTP: "TPC-B benchmark with 40 branches".
        assert_eq!(oltp::OltpParams::paper().branches, 40);
        // Cholesky scaling runs preserve the problem across processor
        // counts (Figure 5).
        let c4 = cholesky::CholeskyParams::paper_scaled(4);
        let c32 = cholesky::CholeskyParams::paper_scaled(32);
        assert_eq!(c4.cols, c32.cols);
        assert_eq!(c4.col_words, c32.col_words);
        assert_eq!(c32.procs, 32);
    }
}
