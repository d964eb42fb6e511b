//! Bridge to the canonical-JSON export path (`ccsim-stats`).

use ccsim_stats::{ModelCheckSummary, VerifySummary};

use crate::abstraction::Verification;
use crate::explore::Exploration;
use crate::refine::Refinement;

/// Flatten an exploration into the serializable summary the harness and
/// CLI export next to run statistics.
pub fn summarize(ex: &Exploration) -> ModelCheckSummary {
    ModelCheckSummary {
        protocol: ex.config.kind.label().to_string(),
        nodes: ex.config.nodes,
        blocks: ex.config.blocks,
        max_ops: ex.config.max_ops,
        states: ex.metrics.states,
        transitions: ex.metrics.transitions,
        dedup_hits: ex.metrics.dedup_hits,
        max_frontier: ex.metrics.max_frontier,
        max_depth: ex.metrics.max_depth,
        wall_ms: ex.metrics.wall_ms,
        state_fingerprint: ex.metrics.state_fingerprint,
        violation: ex
            .counterexample
            .as_ref()
            .map(|c| c.violation.to_string())
            .unwrap_or_default(),
    }
}

/// Flatten a parametric verification into its serializable summary.
pub fn summarize_verify(v: &Verification) -> VerifySummary {
    let (refinement, concretized_nodes, engine_violations) = match &v.refinement {
        None => (String::new(), 0, 0),
        Some(Refinement::Genuine {
            nodes,
            engine_violations,
            ..
        }) => ("genuine".to_string(), *nodes, *engine_violations),
        Some(Refinement::Spurious { .. }) => ("spurious".to_string(), 0, 0),
    };
    VerifySummary {
        protocol: v.config.kind.label().to_string(),
        abstract_states: v.metrics.states,
        transitions: v.metrics.transitions,
        widenings: v.metrics.widenings,
        max_depth: v.metrics.max_depth,
        wall_ms: v.metrics.wall_ms,
        fingerprint: v.metrics.fingerprint,
        parametric: v.counterexample.is_none(),
        violation: v
            .counterexample
            .as_ref()
            .map(|c| c.violation.to_string())
            .unwrap_or_default(),
        refinement,
        concretized_nodes,
        engine_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::verify;
    use crate::config::ModelConfig;
    use crate::explore::explore;
    use ccsim_types::ProtocolKind;
    use ccsim_util::{FromJson, ToJson};

    #[test]
    fn summaries_round_trip_and_mirror_the_exploration() {
        let ex = explore(&ModelConfig::new(ProtocolKind::Ls)).unwrap();
        let s = summarize(&ex);
        assert_eq!(s.protocol, "LS");
        assert_eq!(s.states, ex.metrics.states);
        assert_eq!(s.violation, "", "clean run exports an empty violation");
        let back = ModelCheckSummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn verify_summaries_round_trip_and_mark_clean_runs_parametric() {
        let v = verify(&ModelConfig::new(ProtocolKind::Ad)).unwrap();
        let s = summarize_verify(&v);
        assert_eq!(s.protocol, "AD");
        assert!(s.parametric);
        assert_eq!(s.violation, "");
        assert_eq!(s.refinement, "");
        assert_eq!(s.concretized_nodes, 0);
        let back = VerifySummary::from_text(&s.to_json().pretty()).unwrap();
        assert_eq!(back, s);
    }
}
