//! Adversarial decoding tests for the binary event-log format.
//!
//! `EventLog::from_bytes` reads logs saved by earlier runs, so every
//! malformed input must come back as a structured [`EventLogError`]: never
//! a panic, never a log that re-encodes to different bytes. Same policy as
//! `trace_robustness.rs` for traces.

use ccsim_engine::{EventKind, EventLog, EventLogError, SimBuilder};
use ccsim_types::{Addr, CacheConfig, MachineConfig, ProtocolKind};
use ccsim_util::check::{cases, Gen};

/// A real captured log on a machine with two-block L1s and four-block L2s,
/// so evictions appear next to fills, invalidations, downgrades, NotLS
/// detags, exclusive loads, writes and initial values.
fn sample_bytes() -> Vec<u8> {
    let mut cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
    cfg.l1 = CacheConfig {
        size_bytes: 32,
        assoc: 1,
        block_bytes: 16,
        access_cycles: 1,
    };
    cfg.l2 = CacheConfig {
        size_bytes: 64,
        assoc: 1,
        block_bytes: 16,
        access_cycles: 10,
    };
    let mut b = SimBuilder::new(cfg);
    b.capture_events();
    let a = b.alloc().alloc_padded(8, 16);
    b.init(a, 5);
    for i in 0..4u64 {
        b.spawn(move |p| {
            for k in 0..6u64 {
                let x = Addr(a.0 + 16 * ((i + k) % 8));
                p.fetch_add(x, 1);
                p.load(Addr(a.0 + 16 * ((i * 3 + k) % 8)));
                p.load_exclusive(Addr(a.0 + 16 * (k % 8)));
                p.store(Addr(a.0 + 16 * ((k + 5) % 8)), i);
            }
        });
    }
    let mut done = b.run_full();
    let log = done.take_event_log().expect("capture was enabled");
    let tags = |f: fn(&EventKind) -> bool| log.events().iter().any(|e| f(&e.kind));
    assert!(tags(|k| matches!(k, EventKind::Init { .. })));
    assert!(tags(|k| matches!(k, EventKind::Evict { .. })));
    assert!(tags(|k| matches!(k, EventKind::Inval { .. })));
    assert!(tags(|k| matches!(k, EventKind::ReadExcl { .. })));
    log.to_bytes()
}

/// Decoding must return `Ok` or a structured error; it must never panic.
/// An input that decodes must re-encode to itself: the format has exactly
/// one encoding per log.
fn decode_total(bytes: &[u8]) -> Result<EventLog, EventLogError> {
    let owned = bytes.to_vec();
    let got = std::panic::catch_unwind(move || EventLog::from_bytes(&owned))
        .expect("from_bytes panicked on garbled input");
    if let Ok(log) = &got {
        assert_eq!(
            log.to_bytes(),
            bytes,
            "a decoded log re-encoded differently"
        );
    }
    got
}

#[test]
fn pristine_log_round_trips_to_equal_bytes() {
    let bytes = sample_bytes();
    let log = decode_total(&bytes).unwrap();
    assert!(!log.is_empty());
    assert_eq!(EventLog::from_bytes(&log.to_bytes()), Ok(log));
}

#[test]
fn every_strict_prefix_is_an_error() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        match decode_total(&bytes[..cut]) {
            Ok(_) => panic!("prefix of {cut}/{} bytes decoded", bytes.len()),
            // Inside the header or an event the stream runs out; between
            // events the declared count no longer fits.
            Err(EventLogError::Truncated) | Err(EventLogError::EventCountOverflow { .. }) => {}
            Err(e) => panic!("prefix of {cut} bytes gave unexpected error {e:?}"),
        }
    }
}

#[test]
fn random_truncations_and_extensions_never_panic() {
    let bytes = sample_bytes();
    cases(256, |g: &mut Gen| {
        let mut mutated = bytes.clone();
        if g.bool() {
            mutated.truncate(g.below(bytes.len() as u64 + 1) as usize);
        } else {
            for _ in 0..g.urange(1, 16) {
                mutated.push(g.u64() as u8);
            }
        }
        if decode_total(&mutated).is_ok() {
            assert_eq!(mutated, bytes, "only the pristine encoding may decode");
        }
    });
}

#[test]
fn bit_flips_never_panic() {
    let bytes = sample_bytes();
    cases(1024, |g: &mut Gen| {
        let mut mutated = bytes.clone();
        for _ in 0..g.urange(1, 4) {
            let i = g.below(bytes.len() as u64) as usize;
            mutated[i] ^= 1 << g.below(8);
        }
        // A flip inside an address or value still decodes; a flip in a
        // tag, flag byte or header field must be a typed error.
        let _ = decode_total(&mutated);
    });
}

#[test]
fn byte_soup_never_panics() {
    let header = sample_bytes()[..28].to_vec();
    cases(1024, |g: &mut Gen| {
        let len = g.below(160) as usize;
        let soup = g.vec(len, |g| g.u64() as u8);
        assert!(
            decode_total(&soup).is_err() || soup.len() >= 28,
            "a stream shorter than the header cannot decode"
        );
        // Behind a valid header the soup reaches the event decoder.
        let mut framed = header.clone();
        framed[20..28].copy_from_slice(&(len as u64 / 8).to_le_bytes());
        framed.extend_from_slice(&soup);
        let _ = decode_total(&framed);
    });
}

#[test]
fn header_field_errors_are_specific() {
    let bytes = sample_bytes();
    let patched = |at: usize, with: &[u8]| {
        let mut b = bytes.clone();
        b[at..at + with.len()].copy_from_slice(with);
        decode_total(&b)
    };
    assert!(matches!(
        patched(0, &[0xFF]),
        Err(EventLogError::BadMagic(_))
    ));
    assert_eq!(
        patched(4, &9u32.to_le_bytes()),
        Err(EventLogError::BadVersion(9))
    );
    assert_eq!(
        patched(8, &0x0001_0000u32.to_le_bytes()),
        Err(EventLogError::TooManyNodes(0x0001_0000))
    );
    assert_eq!(
        patched(12, &24u64.to_le_bytes()),
        Err(EventLogError::BadBlockBytes(24))
    );
    assert_eq!(
        patched(12, &0u64.to_le_bytes()),
        Err(EventLogError::BadBlockBytes(0))
    );
    assert!(matches!(
        patched(20, &(u64::MAX / 2).to_le_bytes()),
        Err(EventLogError::EventCountOverflow { .. })
    ));
    // Declared as a one-node log, the four-processor run names processor 1+.
    assert!(matches!(
        patched(8, &1u32.to_le_bytes()),
        Err(EventLogError::ProcOutOfRange { .. })
    ));
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_eq!(
        decode_total(&trailing),
        Err(EventLogError::TrailingBytes(1))
    );
}
