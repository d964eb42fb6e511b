//! Protocol microscope: step through the paper's Figure 1 state machine
//! one transaction at a time, printing the home-node state, the LR field,
//! and the LS-bit after every global action.
//!
//! This drives the directory crate directly (no simulator), so it is the
//! clearest way to see the LS lifecycle: detection → exclusive grant →
//! silent write → migration → replacement survival → de-tagging.
//!
//! Run with: `cargo run --example protocol_microscope`

use ccsim::core::{DirTable, GrantKind, ReadStep, WriteStep};
use ccsim::types::{Addr, BlockAddr, NodeId, ProtocolConfig, ProtocolKind};

/// The one home node of the single-home directory table.
const HOME: NodeId = NodeId(0);

struct Scope {
    dir: DirTable,
    block: BlockAddr,
}

impl Scope {
    fn show(&self, action: &str) {
        let e = self.dir.entry(self.block);
        let (lr, ls) = e
            .map(|e| (e.lr.map(|n| n.to_string()).unwrap_or("-".into()), e.tagged))
            .unwrap_or(("-".into(), false));
        println!(
            "{:<44} home={:?} LR={:<3} LS-bit={}",
            action,
            self.dir.fig1(self.block),
            lr,
            if ls { 1 } else { 0 }
        );
    }

    fn read(&mut self, p: NodeId, owner_wrote: bool) {
        let what = match self.dir.read(HOME, self.block, p) {
            ReadStep::Memory { grant, .. } => match grant {
                GrantKind::Shared => format!("{p} reads -> shared copy"),
                GrantKind::Exclusive => format!("{p} reads -> EXCLUSIVE copy (LStemp)"),
                GrantKind::TearOff => format!("{p} reads -> tear-off copy"),
            },
            ReadStep::Forward { owner } => {
                let r = self
                    .dir
                    .read_forward_result(HOME, self.block, p, owner_wrote, owner_wrote);
                match (r.grant, r.notls) {
                    (GrantKind::Exclusive, _) => {
                        format!("{p} reads -> dirty EXCLUSIVE handoff from {owner}")
                    }
                    (_, true) => format!("{p} reads -> {owner} unwritten: NotLS, share"),
                    _ => format!("{p} reads -> {owner} downgrades, share"),
                }
            }
        };
        self.show(&what);
    }

    fn write(&mut self, p: NodeId) {
        let what = match self.dir.write(HOME, self.block, p) {
            WriteStep::Memory {
                invalidate,
                data_needed,
            } => format!(
                "{p} writes ({}, {} invalidation(s))",
                if data_needed { "write miss" } else { "upgrade" },
                invalidate.len()
            ),
            WriteStep::Forward { owner } => {
                self.dir.write_forward_result(HOME, self.block, p, true);
                format!("{p} writes -> ownership pulled from {owner}")
            }
        };
        self.show(&what);
    }

    fn evict(&mut self, p: NodeId) {
        self.dir.replacement(HOME, self.block, p);
        self.show(&format!("{p} replaces its copy (capacity)"));
    }
}

fn main() {
    let block_bytes = 16;
    let block = Addr(0x40).block(block_bytes);
    let mut s = Scope {
        dir: DirTable::new(ProtocolConfig::new(ProtocolKind::Ls), block_bytes, 1),
        block,
    };
    let (p0, p1, p2) = (NodeId(0), NodeId(1), NodeId(2));

    println!("=== The LS protocol lifecycle (paper Figure 1) ===\n");

    println!("-- 1. Detection: a load-store sequence tags the block --");
    s.read(p0, false);
    s.write(p0);

    println!("\n-- 2. The optimization: reads now return exclusive copies --");
    s.read(p1, true); // P0 had written: dirty exclusive handoff
    s.show("   (P1 stores silently in its cache: no global action at all)");

    println!("\n-- 3. §3.1 case 3: the LS-bit survives replacement --");
    s.evict(p1);
    s.read(p2, false);
    s.show("   (P2 got an exclusive copy straight from memory)");

    println!("\n-- 4. §3.1 case 2: a failed prediction de-tags --");
    s.read(p0, false); // P2 never wrote: NotLS
    println!();
    println!("-- 5. Writes not preceded by own reads de-tag too --");
    s.write(p1); // P1 writes without reading: invalidates sharers, de-tags
    s.show("   (block is back to ordinary write-invalidate handling)");
}
