//! Serve-scale traffic configuration: population, arrival process,
//! transaction mix, admission queues, and ward predicates.
//!
//! All knobs are integers (per-mille where a ratio is meant) so the
//! canonical JSON encoding round-trips byte-exactly and can participate in
//! content-addressed keys. Validation runs at the JSON decode boundary —
//! exactly like `FaultConfig` — so a hand-edited experiment file fails
//! loudly with a `serve:`-prefixed error instead of seeding a nonsense
//! traffic plan.

use ccsim_util::{json_record, FromJson, Json, ToJson};

/// Transaction classes of the serve mix, in mix-array order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnClass {
    PointRead,
    Rmw,
    Scan,
    Append,
}

impl TxnClass {
    pub const ALL: [TxnClass; 4] = [
        TxnClass::PointRead,
        TxnClass::Rmw,
        TxnClass::Scan,
        TxnClass::Append,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TxnClass::PointRead => "point_read",
            TxnClass::Rmw => "rmw",
            TxnClass::Scan => "scan",
            TxnClass::Append => "append",
        }
    }

    pub fn idx(self) -> usize {
        match self {
            TxnClass::PointRead => 0,
            TxnClass::Rmw => 1,
            TxnClass::Scan => 2,
            TxnClass::Append => 3,
        }
    }
}

/// Ward predicates: when an open-ended serve run stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WardConfig {
    /// Global ward check cadence: one check per this many completed
    /// transactions (machine-wide).
    pub check_every: u64,
    /// Converged-percentiles ward: maximum per-check relative movement of
    /// any class p99, in per-mille of the previous value.
    pub converge_per_mille: u64,
    /// Consecutive in-tolerance checks required to declare steady state.
    pub converge_checks: u32,
    /// Hard stop: end the run once any processor clock passes this.
    pub max_cycles: u64,
    /// Queue-divergence ward: stop once this many arrivals have been
    /// dropped at full admission queues (overload detected). 0 disables.
    pub diverge_dropped: u64,
}

json_record!(WardConfig {
    check_every,
    converge_per_mille,
    converge_checks,
    max_cycles,
    diverge_dropped
});

/// The serve-scale traffic plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Simulated client population (keys of the zipf distribution).
    pub clients: u64,
    /// Zipf exponent `s`, per-mille (990 ⇒ s = 0.99). Must be > 0.
    pub skew_per_mille: u32,
    /// Open-loop base arrival rate, machine-wide, per million cycles.
    pub rate_per_mcycle: u64,
    /// Burst phase: length of the elevated-rate window, cycles
    /// (0 disables bursts).
    pub burst_on_cycles: u64,
    /// Burst phase: length of the base-rate window, cycles.
    pub burst_off_cycles: u64,
    /// Rate multiplier during the on-window, per-mille (≥ 1000).
    pub burst_x_per_mille: u64,
    /// Transaction-class mix, per-mille, in [`TxnClass::ALL`] order
    /// (point read / RMW / scan / append). Must sum to 1000.
    pub mix_per_mille: [u16; 4],
    /// Per-node admission queue bound; arrivals beyond it are dropped and
    /// counted (open loop: overload shows as queue growth + drops, never
    /// back-pressure on the generator).
    pub queue_cap: u64,
    /// TPC-B schema sizing under the traffic.
    pub branches: u64,
    pub accounts: u64,
    /// Index region words for the scan class.
    pub index_words: u64,
    /// Root seed; every per-client stream is split from it.
    pub seed: u64,
    pub ward: WardConfig,
}

impl ServeConfig {
    /// CI-scale: small population and schema, rate near half capacity so
    /// the converged-percentiles ward fires within ~1M cycles.
    pub fn quick() -> Self {
        ServeConfig {
            clients: 50_000,
            skew_per_mille: 900,
            rate_per_mcycle: 1200,
            burst_on_cycles: 40_000,
            burst_off_cycles: 120_000,
            burst_x_per_mille: 3000,
            mix_per_mille: [450, 300, 150, 100],
            queue_cap: 64,
            branches: 16,
            accounts: 16_384,
            index_words: 65_536,
            seed: 0x5E21E,
            ward: WardConfig {
                check_every: 128,
                converge_per_mille: 60,
                converge_checks: 3,
                max_cycles: 4_000_000,
                diverge_dropped: 2_000,
            },
        }
    }

    /// The ROADMAP north-star shape: millions of clients over the
    /// paper-scale schema.
    pub fn paper() -> Self {
        ServeConfig {
            clients: 2_000_000,
            skew_per_mille: 990,
            rate_per_mcycle: 1600,
            burst_on_cycles: 200_000,
            burst_off_cycles: 600_000,
            burst_x_per_mille: 3000,
            mix_per_mille: [450, 300, 150, 100],
            queue_cap: 256,
            branches: 40,
            accounts: 65_536,
            index_words: 262_144,
            seed: 0x5E21E,
            ward: WardConfig {
                check_every: 512,
                converge_per_mille: 40,
                converge_checks: 4,
                max_cycles: 40_000_000,
                diverge_dropped: 20_000,
            },
        }
    }

    /// Reject nonsense plans. Error strings are bare; the decode boundary
    /// prefixes `serve:`.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients must be > 0".into());
        }
        if self.skew_per_mille == 0 {
            return Err("skew_per_mille must be > 0".into());
        }
        if self.rate_per_mcycle == 0 {
            return Err("rate_per_mcycle must be > 0".into());
        }
        if let Some(m) = self.mix_per_mille.iter().find(|&&m| m > 1000) {
            return Err(format!("mix entry {m} exceeds 1000 per-mille"));
        }
        let mix_sum: u64 = self.mix_per_mille.iter().map(|&m| m as u64).sum();
        if mix_sum != 1000 {
            return Err(format!(
                "mix_per_mille must sum to 1000 per-mille (got {mix_sum})"
            ));
        }
        if self.burst_x_per_mille < 1000 {
            return Err("burst_x_per_mille must be >= 1000".into());
        }
        let Some(burst_period) = self.burst_on_cycles.checked_add(self.burst_off_cycles) else {
            return Err("burst_on_cycles + burst_off_cycles overflows u64".into());
        };
        if (self.burst_on_cycles == 0) != (burst_period == 0) {
            return Err(
                "burst_on_cycles and burst_off_cycles must both be set or both zero".into(),
            );
        }
        if self.queue_cap == 0 {
            return Err("queue_cap must be > 0".into());
        }
        if self.branches == 0 || self.accounts == 0 || self.index_words < 8 {
            return Err("schema sizing (branches/accounts/index_words) too small".into());
        }
        if self.ward.check_every == 0 {
            return Err("ward.check_every must be > 0".into());
        }
        if self.ward.converge_checks == 0 {
            return Err("ward.converge_checks must be > 0".into());
        }
        if self.ward.max_cycles == 0 {
            return Err("ward.max_cycles must be > 0".into());
        }
        Ok(())
    }
}

impl ToJson for ServeConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clients", self.clients.to_json()),
            ("skew_per_mille", self.skew_per_mille.to_json()),
            ("rate_per_mcycle", self.rate_per_mcycle.to_json()),
            ("burst_on_cycles", self.burst_on_cycles.to_json()),
            ("burst_off_cycles", self.burst_off_cycles.to_json()),
            ("burst_x_per_mille", self.burst_x_per_mille.to_json()),
            ("mix_per_mille", self.mix_per_mille.to_json()),
            ("queue_cap", self.queue_cap.to_json()),
            ("branches", self.branches.to_json()),
            ("accounts", self.accounts.to_json()),
            ("index_words", self.index_words.to_json()),
            ("seed", self.seed.to_json()),
            ("ward", self.ward.to_json()),
        ])
    }
}

impl FromJson for ServeConfig {
    /// Hand-written rather than a `json_record!`: a decoded plan must also
    /// pass [`ServeConfig::validate`].
    fn from_json(j: &Json) -> Result<Self, String> {
        let cfg = ServeConfig {
            clients: j.field("clients")?,
            skew_per_mille: j.field("skew_per_mille")?,
            rate_per_mcycle: j.field("rate_per_mcycle")?,
            burst_on_cycles: j.field("burst_on_cycles")?,
            burst_off_cycles: j.field("burst_off_cycles")?,
            burst_x_per_mille: j.field("burst_x_per_mille")?,
            mix_per_mille: j.field("mix_per_mille")?,
            queue_cap: j.field("queue_cap")?,
            branches: j.field("branches")?,
            accounts: j.field("accounts")?,
            index_words: j.field("index_words")?,
            seed: j.field("seed")?,
            ward: j.field("ward")?,
        };
        // Reject out-of-range plans at the decode boundary, mirroring the
        // FaultConfig pattern: a hand-edited file fails loudly here.
        cfg.validate().map_err(|e| format!("serve: {e}"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate_and_round_trip() {
        for cfg in [ServeConfig::quick(), ServeConfig::paper()] {
            cfg.validate().unwrap();
            let text = cfg.to_json().to_string();
            let back = ServeConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, cfg);
            assert_eq!(back.to_json().to_string(), text, "canonical bytes");
        }
    }

    #[test]
    fn decode_rejects_zero_skew_with_prefixed_error() {
        let mut cfg = ServeConfig::quick();
        cfg.skew_per_mille = 0;
        let err =
            ServeConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.starts_with("serve:"), "{err}");
        assert!(err.contains("skew_per_mille"), "{err}");
    }

    #[test]
    fn decode_rejects_zero_rate_with_prefixed_error() {
        let mut cfg = ServeConfig::quick();
        cfg.rate_per_mcycle = 0;
        let err =
            ServeConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.starts_with("serve:"), "{err}");
        assert!(err.contains("rate_per_mcycle"), "{err}");
    }

    #[test]
    fn decode_rejects_mix_not_summing_to_1000() {
        let mut cfg = ServeConfig::quick();
        cfg.mix_per_mille = [500, 300, 150, 100]; // 1050
        let err =
            ServeConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap_err();
        assert!(err.starts_with("serve:"), "{err}");
        assert!(err.contains("sum to 1000"), "{err}");
        assert!(err.contains("1050"), "{err}");
    }

    #[test]
    fn decode_rejects_structural_mix_errors() {
        let text = ServeConfig::quick().to_json().to_string();
        let three = text.replace("[450,300,150,100]", "[450,300,250]");
        let err = ServeConfig::from_json(&Json::parse(&three).unwrap()).unwrap_err();
        assert!(err.contains("4 entries"), "{err}");
        let big = text.replace("[450,300,150,100]", "[1450,300,150,100]");
        let err = ServeConfig::from_json(&Json::parse(&big).unwrap()).unwrap_err();
        assert!(err.contains("exceeds 1000"), "{err}");
    }

    #[test]
    fn decode_rejects_out_of_range_u32_fields() {
        let text = ServeConfig::quick().to_json().to_string();
        // 2^32 + 1 must be rejected, not wrapped to a valid 1.
        let skew = text.replace("\"skew_per_mille\": 900", "\"skew_per_mille\": 4294967297");
        assert_ne!(skew, text);
        let err = ServeConfig::from_text(&skew).unwrap_err();
        assert_eq!(
            err,
            "field `skew_per_mille`: 4294967297 out of range for u32"
        );
        let checks = text.replace("\"converge_checks\": 3", "\"converge_checks\": 4294967297");
        assert_ne!(checks, text);
        let err = ServeConfig::from_text(&checks).unwrap_err();
        assert_eq!(
            err,
            "field `ward`: field `converge_checks`: 4294967297 out of range for u32"
        );
    }

    #[test]
    fn validate_guards_ward_and_queue_knobs() {
        let mut cfg = ServeConfig::quick();
        cfg.queue_cap = 0;
        assert!(cfg.validate().unwrap_err().contains("queue_cap"));
        let mut cfg = ServeConfig::quick();
        cfg.ward.check_every = 0;
        assert!(cfg.validate().unwrap_err().contains("check_every"));
        let mut cfg = ServeConfig::quick();
        cfg.ward.max_cycles = 0;
        assert!(cfg.validate().unwrap_err().contains("max_cycles"));
        let mut cfg = ServeConfig::quick();
        cfg.burst_x_per_mille = 900;
        assert!(cfg.validate().unwrap_err().contains("burst_x_per_mille"));
    }

    #[test]
    fn accepts_burstless_plans() {
        let mut cfg = ServeConfig::quick();
        cfg.burst_on_cycles = 0;
        cfg.burst_off_cycles = 0;
        cfg.validate().unwrap();
    }
}
