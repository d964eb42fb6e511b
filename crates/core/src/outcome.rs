//! Transaction outcomes the directory hands back to the simulation engine.

use ccsim_types::NodeId;

use crate::SharerSet;

/// What kind of copy a read grant confers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantKind {
    /// Clean shared copy (cache state `S`).
    Shared,
    /// Exclusive copy: `LStemp`/migratory grant (cache state `X`), letting
    /// the anticipated store complete locally.
    Exclusive,
    /// DSI tear-off: the requester receives the data but does **not** cache
    /// it and is **not** recorded as a sharer — the self-invalidation
    /// happened at grant time, so the next writer sends no invalidation.
    TearOff,
}

/// What a forwarded request asks the previous owner to do with its copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnerAction {
    /// Keep a shared copy (read-on-dirty without tag: `M`/`X` → `S`).
    Downgrade,
    /// Drop the copy (exclusive handoff or write forward).
    Invalidate,
}

/// Home-state classification of a global read miss, the four groups of the
/// rightmost diagrams of Figures 3/4/6/7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadMissClass {
    /// Memory current, block untagged.
    Clean,
    /// Modified in a remote cache, block untagged.
    Dirty,
    /// Tagged (migratory or load-store) and clean — includes exclusive
    /// grants straight from memory.
    CleanExclusive,
    /// Tagged and modified in a remote cache.
    DirtyExclusive,
}

impl ReadMissClass {
    pub const ALL: [ReadMissClass; 4] = [
        ReadMissClass::Clean,
        ReadMissClass::Dirty,
        ReadMissClass::CleanExclusive,
        ReadMissClass::DirtyExclusive,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ReadMissClass::Clean => "Clean",
            ReadMissClass::Dirty => "Dirty",
            ReadMissClass::CleanExclusive => "Clean exclusive",
            ReadMissClass::DirtyExclusive => "Dirty exclusive",
        }
    }
}

/// First step of a global read at the home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStep {
    /// Home memory is current: reply directly with the given grant.
    Memory {
        grant: GrantKind,
        class: ReadMissClass,
    },
    /// A single cache holds the block with write permission; the engine must
    /// query/forward to it and then call
    /// [`crate::DirTable::read_forward_result`] with the owner's state.
    Forward { owner: NodeId },
}

/// Resolution of a forwarded read, once the owner's actual cache state
/// (modified or still clean) is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadResolution {
    pub grant: GrantKind,
    /// The requester receives a *dirty* exclusive copy (cache state `M`):
    /// exclusive handoff of modified data, as migratory protocols do.
    pub requester_dirty: bool,
    pub owner_action: OwnerAction,
    /// Owner refreshes the home's memory copy in parallel (read-on-dirty
    /// downgrade path).
    pub sharing_writeback: bool,
    /// Owner notifies the home that the block ceased to be load-store
    /// (`NotLS`, §3.1 case 2; also used for the symmetric AD reversion).
    pub notls: bool,
    pub class: ReadMissClass,
}

/// First step of a global write (ownership acquisition) at the home.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteStep {
    /// Home can grant directly: invalidate the listed sharers; send data iff
    /// `data_needed` (write miss rather than upgrade).
    Memory {
        invalidate: SharerSet,
        data_needed: bool,
    },
    /// Block owned elsewhere: engine forwards, owner invalidates and ships
    /// data + ownership; conclude with
    /// [`crate::DirTable::write_forward_result`].
    Forward { owner: NodeId },
}

/// Resolution of a forwarded write (kept for API symmetry and stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteResolution {
    /// Previous owner's copy was modified (data had to come from its cache
    /// rather than memory) — diagnostic only; the message flow is identical.
    pub owner_was_modified: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_miss_class_labels_are_the_figure_legends() {
        assert_eq!(ReadMissClass::Clean.label(), "Clean");
        assert_eq!(ReadMissClass::Dirty.label(), "Dirty");
        assert_eq!(ReadMissClass::CleanExclusive.label(), "Clean exclusive");
        assert_eq!(ReadMissClass::DirtyExclusive.label(), "Dirty exclusive");
        assert_eq!(ReadMissClass::ALL.len(), 4);
    }
}
