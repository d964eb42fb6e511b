//! Coherence message taxonomy.
//!
//! Every global transaction the protocol performs is decomposed into explicit
//! messages so that network traffic can be accounted per message, in the
//! three classes the paper's traffic figures use: *read-related*,
//! *write-related* and *other* (retries, replacement hints, `NotLS`
//! notifications, replacement writebacks).

/// Traffic class used in the paper's message diagrams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Read requests, data replies to reads, read forwards, sharing
    /// writebacks on read-on-dirty.
    Read,
    /// Ownership acquisitions, write-miss requests/replies, invalidations
    /// and their acknowledgements.
    Write,
    /// Retries, replacement writebacks/hints, `NotLS` notifications.
    Other,
}

impl MsgClass {
    pub const ALL: [MsgClass; 3] = [MsgClass::Read, MsgClass::Write, MsgClass::Other];

    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Read => "Read",
            MsgClass::Write => "Write",
            MsgClass::Other => "Other",
        }
    }
}

/// One kind of coherence message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Requester -> home: global read request.
    ReadReq,
    /// Home -> requester: data reply, shared grant.
    ReadReply,
    /// Home -> requester: data reply, *exclusive* grant (LS-tagged or
    /// migratory block). Same size as `ReadReply`.
    ReadExclReply,
    /// Home -> current owner: forward of a read (read-on-dirty or
    /// read-on-exclusive).
    ReadForward,
    /// Owner -> requester: data reply on a forwarded read.
    OwnerReply,
    /// Owner -> home: sharing writeback accompanying a read-on-dirty
    /// (the home's memory copy is refreshed).
    SharingWriteback,
    /// Requester -> home: ownership acquisition for a block the requester
    /// already caches in shared state (an upgrade).
    UpgradeReq,
    /// Home -> requester: upgrade acknowledgement (no data).
    UpgradeAck,
    /// Requester -> home: write miss (ownership + data needed).
    WriteMissReq,
    /// Home -> requester: data + ownership reply to a write miss.
    WriteMissReply,
    /// Home -> owner: forward of a write miss to the dirty/exclusive owner.
    WriteForward,
    /// Owner -> requester: data + ownership on a forwarded write miss.
    OwnerWriteReply,
    /// Home -> sharer: invalidation.
    Inval,
    /// Sharer -> requester: invalidation acknowledgement.
    InvalAck,
    /// Cache -> home: replacement writeback of a modified block (data).
    ReplWriteback,
    /// Cache -> home: replacement hint for a shared or exclusive-clean
    /// block (keeps the full-map directory exact; header only).
    ReplHint,
    /// Cache -> home: the exclusive-clean (`LStemp`) copy was downgraded by
    /// a foreign read before being written; the home clears the LS-bit
    /// (§3.1 case 2). Header only.
    NotLs,
    /// Home -> requester: transaction bounced because another transaction
    /// on the same block is in flight; retry later.
    Retry,
    /// Receiver -> sender: transport-level acknowledgement of a sequenced
    /// message (recovery transport only; header only, never seen by the
    /// protocol layer).
    Ack,
}

impl MsgKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`, so a kind
    /// indexes dense per-kind tables directly.
    pub const ALL: [MsgKind; 19] = [
        MsgKind::ReadReq,
        MsgKind::ReadReply,
        MsgKind::ReadExclReply,
        MsgKind::ReadForward,
        MsgKind::OwnerReply,
        MsgKind::SharingWriteback,
        MsgKind::UpgradeReq,
        MsgKind::UpgradeAck,
        MsgKind::WriteMissReq,
        MsgKind::WriteMissReply,
        MsgKind::WriteForward,
        MsgKind::OwnerWriteReply,
        MsgKind::Inval,
        MsgKind::InvalAck,
        MsgKind::ReplWriteback,
        MsgKind::ReplHint,
        MsgKind::NotLs,
        MsgKind::Retry,
        MsgKind::Ack,
    ];

    /// Traffic class for the paper's read/write/other split.
    pub fn class(self) -> MsgClass {
        use MsgKind::*;
        match self {
            ReadReq | ReadReply | ReadExclReply | ReadForward | OwnerReply | SharingWriteback => {
                MsgClass::Read
            }
            UpgradeReq | UpgradeAck | WriteMissReq | WriteMissReply | WriteForward
            | OwnerWriteReply | Inval | InvalAck => MsgClass::Write,
            ReplWriteback | ReplHint | NotLs | Retry | Ack => MsgClass::Other,
        }
    }

    /// Whether the message carries a data payload of one memory block.
    pub fn carries_data(self) -> bool {
        use MsgKind::*;
        matches!(
            self,
            ReadReply
                | ReadExclReply
                | OwnerReply
                | SharingWriteback
                | WriteMissReply
                | OwnerWriteReply
                | ReplWriteback
        )
    }

    /// Message size in bytes: an 8-byte header (command + address + ids)
    /// plus one block of data where applicable, the accounting model used
    /// by comparable directory-protocol studies.
    pub fn size_bytes(self, block_bytes: u64) -> u64 {
        const HEADER_BYTES: u64 = 8;
        if self.carries_data() {
            HEADER_BYTES + block_bytes
        } else {
            HEADER_BYTES
        }
    }

    /// True for home-to-sharer invalidation messages (the "Invalidations"
    /// series of Figure 5).
    pub fn is_invalidation(self) -> bool {
        self == MsgKind::Inval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_class_and_size() {
        for k in MsgKind::ALL {
            let _ = k.class();
            assert!(k.size_bytes(32) >= 8);
        }
    }

    #[test]
    fn all_kinds_are_listed_in_declaration_order() {
        for (i, k) in MsgKind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} is out of place in MsgKind::ALL");
        }
    }

    #[test]
    fn data_messages_are_header_plus_block() {
        assert_eq!(MsgKind::ReadReply.size_bytes(32), 40);
        assert_eq!(MsgKind::ReadReq.size_bytes(32), 8);
        assert_eq!(MsgKind::ReplWriteback.size_bytes(64), 72);
        assert_eq!(MsgKind::Inval.size_bytes(64), 8);
    }

    #[test]
    fn classes_follow_the_paper_split() {
        assert_eq!(MsgKind::ReadReq.class(), MsgClass::Read);
        assert_eq!(MsgKind::ReadExclReply.class(), MsgClass::Read);
        assert_eq!(MsgKind::SharingWriteback.class(), MsgClass::Read);
        assert_eq!(MsgKind::UpgradeReq.class(), MsgClass::Write);
        assert_eq!(MsgKind::Inval.class(), MsgClass::Write);
        assert_eq!(MsgKind::InvalAck.class(), MsgClass::Write);
        assert_eq!(MsgKind::Retry.class(), MsgClass::Other);
        assert_eq!(MsgKind::NotLs.class(), MsgClass::Other);
        assert_eq!(MsgKind::ReplWriteback.class(), MsgClass::Other);
        assert_eq!(MsgKind::Ack.class(), MsgClass::Other);
        assert!(!MsgKind::Ack.carries_data());
    }

    #[test]
    fn exclusive_grants_do_not_cost_extra() {
        // The LS/AD optimization must not be charged extra bytes for the
        // exclusive grant: it is the same data reply with a different grant.
        assert_eq!(
            MsgKind::ReadReply.size_bytes(16),
            MsgKind::ReadExclReply.size_bytes(16)
        );
    }

    #[test]
    fn invalidation_predicate() {
        assert!(MsgKind::Inval.is_invalidation());
        assert!(!MsgKind::InvalAck.is_invalidation());
        assert!(!MsgKind::UpgradeReq.is_invalidation());
    }

    #[test]
    fn class_labels() {
        assert_eq!(MsgClass::Read.label(), "Read");
        assert_eq!(MsgClass::Write.label(), "Write");
        assert_eq!(MsgClass::Other.label(), "Other");
    }
}
