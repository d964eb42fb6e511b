//! Hand-written JSON encodings for the configuration types whose decoding
//! does more than read fields: the tagged enums, `ProtocolConfig` (its
//! testing-only mutation field is not encoded) and `FaultConfig`
//! (validated at decode). The plain records derive theirs with
//! `json_record!` beside their definitions in [`crate::config`].
//!
//! Together these define the canonical serialized form of a machine
//! description. The run cache keys entries by hashing this encoding, so the
//! field order and spelling are part of the cache format: changing them
//! invalidates old cache entries (by design — see the format salt in
//! `ccsim-harness`), but must never make two *different* configurations
//! encode identically.

use crate::{Consistency, FaultConfig, ProtocolConfig, ProtocolKind, Topology};
use ccsim_util::{FromJson, Json, ToJson};

impl ToJson for Consistency {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Consistency::Sc => "sc",
                Consistency::Relaxed => "relaxed",
            }
            .to_string(),
        )
    }
}

impl FromJson for Consistency {
    fn from_json(j: &Json) -> Result<Self, String> {
        match j.as_str()? {
            "sc" => Ok(Consistency::Sc),
            "relaxed" => Ok(Consistency::Relaxed),
            other => Err(format!("unknown consistency `{other}`")),
        }
    }
}

impl ToJson for ProtocolKind {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

impl FromJson for ProtocolKind {
    fn from_json(j: &Json) -> Result<Self, String> {
        match j.as_str()? {
            "Baseline" => Ok(ProtocolKind::Baseline),
            "AD" => Ok(ProtocolKind::Ad),
            "LS" => Ok(ProtocolKind::Ls),
            "DSI" => Ok(ProtocolKind::Dsi),
            other => Err(format!("unknown protocol `{other}`")),
        }
    }
}

impl ToJson for ProtocolConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", self.kind.to_json()),
            ("ls", self.ls.to_json()),
            ("ad", self.ad.to_json()),
        ])
    }
}

impl FromJson for ProtocolConfig {
    fn from_json(j: &Json) -> Result<Self, String> {
        // Built via `new` rather than a struct literal: the testing-only
        // mutation field is not part of the canonical encoding and always
        // decodes to `None`.
        let mut cfg = ProtocolConfig::new(j.field("kind")?);
        cfg.ls = j.field("ls")?;
        cfg.ad = j.field("ad")?;
        Ok(cfg)
    }
}

impl ToJson for Topology {
    fn to_json(&self) -> Json {
        match self {
            Topology::PointToPoint => Json::obj(vec![("type", "point_to_point".to_json())]),
            Topology::Mesh2D { width } => Json::obj(vec![
                ("type", "mesh2d".to_json()),
                ("width", width.to_json()),
            ]),
        }
    }
}

impl FromJson for Topology {
    fn from_json(j: &Json) -> Result<Self, String> {
        match j.field::<String>("type")?.as_str() {
            "point_to_point" => Ok(Topology::PointToPoint),
            "mesh2d" => Ok(Topology::Mesh2D {
                width: j.field("width")?,
            }),
            other => Err(format!("unknown topology `{other}`")),
        }
    }
}

impl ToJson for FaultConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nack_per_mille", self.nack_per_mille.to_json()),
            ("delay_per_mille", self.delay_per_mille.to_json()),
            ("drop_per_mille", self.drop_per_mille.to_json()),
            ("dup_per_mille", self.dup_per_mille.to_json()),
            ("reorder_per_mille", self.reorder_per_mille.to_json()),
            ("max_delay_cycles", self.max_delay_cycles.to_json()),
            (
                "max_consecutive_nacks",
                self.max_consecutive_nacks.to_json(),
            ),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for FaultConfig {
    fn from_json(j: &Json) -> Result<Self, String> {
        let cfg = FaultConfig {
            nack_per_mille: j.field("nack_per_mille")?,
            delay_per_mille: j.field("delay_per_mille")?,
            drop_per_mille: j.field("drop_per_mille")?,
            dup_per_mille: j.field("dup_per_mille")?,
            reorder_per_mille: j.field("reorder_per_mille")?,
            max_delay_cycles: j.field("max_delay_cycles")?,
            max_consecutive_nacks: j.field("max_consecutive_nacks")?,
            seed: j.field("seed")?,
            #[cfg(feature = "testing")]
            mutation: None,
        };
        // Reject out-of-range rates at the decode boundary, so a hand-edited
        // experiment file fails loudly instead of seeding a nonsense plan.
        cfg.validate().map_err(|e| format!("faults: {e}"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn machine_config_round_trips() {
        for kind in [
            ProtocolKind::Baseline,
            ProtocolKind::Ad,
            ProtocolKind::Ls,
            ProtocolKind::Dsi,
        ] {
            let mut cfg = MachineConfig::splash_baseline(kind);
            cfg.consistency = Consistency::Relaxed;
            cfg.topology = Topology::Mesh2D { width: 2 };
            cfg.protocol.ls.tag_hysteresis = 2;
            cfg.faults = FaultConfig {
                nack_per_mille: 25,
                delay_per_mille: 10,
                drop_per_mille: 15,
                dup_per_mille: 12,
                reorder_per_mille: 9,
                max_delay_cycles: 80,
                max_consecutive_nacks: 6,
                seed: 0xFA17,
                ..FaultConfig::default()
            };
            let text = cfg.to_json().to_string();
            let back = MachineConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn fault_config_in_range_decodes() {
        let cfg = FaultConfig {
            nack_per_mille: 1000,
            delay_per_mille: 1000,
            drop_per_mille: 1000,
            dup_per_mille: 1000,
            reorder_per_mille: 1000,
            max_delay_cycles: 1,
            max_consecutive_nacks: 1,
            seed: 7,
            ..FaultConfig::default()
        };
        let back =
            FaultConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn fault_config_out_of_range_rates_are_rejected_at_decode() {
        let mut bad = FaultConfig {
            nack_per_mille: 1001,
            ..FaultConfig::default()
        };
        let err =
            FaultConfig::from_json(&Json::parse(&bad.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.contains("faults:"), "{err}");
        assert!(err.contains("NACK rate 1001/1000"), "{err}");

        bad = FaultConfig {
            delay_per_mille: 2000,
            max_delay_cycles: 10,
            ..FaultConfig::default()
        };
        let err =
            FaultConfig::from_json(&Json::parse(&bad.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.contains("delay rate 2000/1000"), "{err}");

        // Delay enabled but with no spike budget is equally nonsensical.
        bad = FaultConfig {
            delay_per_mille: 5,
            max_delay_cycles: 0,
            ..FaultConfig::default()
        };
        let err =
            FaultConfig::from_json(&Json::parse(&bad.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.contains("max_delay_cycles"), "{err}");

        // Each transport-fault rate is bounded at the same decode boundary.
        for (set, needle) in [
            (
                (|f: &mut FaultConfig| f.drop_per_mille = 1001) as fn(&mut FaultConfig),
                "drop rate 1001/1000",
            ),
            (
                |f: &mut FaultConfig| f.dup_per_mille = 1200,
                "dup rate 1200/1000",
            ),
            (
                |f: &mut FaultConfig| f.reorder_per_mille = 4000,
                "reorder rate 4000/1000",
            ),
        ] {
            let mut bad = FaultConfig::default();
            set(&mut bad);
            let err = FaultConfig::from_json(&Json::parse(&bad.to_json().to_string()).unwrap())
                .unwrap_err();
            assert!(err.contains("faults:"), "{err}");
            assert!(err.contains(needle), "{err}");
        }

        // A zero forced-delivery bound would let NACK/drop streaks run
        // unbounded; it is rejected with the same prefix convention.
        bad = FaultConfig {
            max_consecutive_nacks: 0,
            ..FaultConfig::default()
        };
        let err =
            FaultConfig::from_json(&Json::parse(&bad.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.contains("faults:"), "{err}");
        assert!(err.contains("max_consecutive_nacks"), "{err}");

        // The invalid rate also poisons a whole MachineConfig decode.
        let mut machine = MachineConfig::splash_baseline(ProtocolKind::Ls);
        machine.faults.nack_per_mille = 9999;
        let err = MachineConfig::from_json(&Json::parse(&machine.to_json().to_string()).unwrap())
            .unwrap_err();
        assert!(err.contains("faults:"), "{err}");

        let mut machine = MachineConfig::splash_baseline(ProtocolKind::Ls);
        machine.faults.drop_per_mille = 9999;
        let err = MachineConfig::from_json(&Json::parse(&machine.to_json().to_string()).unwrap())
            .unwrap_err();
        assert!(err.contains("faults:"), "{err}");
    }

    #[test]
    fn distinct_configs_encode_distinctly() {
        let a = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let b = a.with_block_bytes(32);
        let c = MachineConfig::splash_baseline(ProtocolKind::Ad);
        assert_ne!(a.to_json().to_string(), b.to_json().to_string());
        assert_ne!(a.to_json().to_string(), c.to_json().to_string());
    }

    #[test]
    fn encoding_is_stable() {
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        assert_eq!(cfg.to_json().to_string(), cfg.to_json().to_string());
        // Spot-check the canonical spelling the cache key depends on.
        let j = cfg.to_json();
        assert_eq!(j.field::<u16>("nodes").unwrap(), 4);
        assert_eq!(
            j.req("protocol")
                .unwrap()
                .field::<ProtocolKind>("kind")
                .unwrap()
                .label(),
            "LS"
        );
    }
}
