//! Stream entries, and the sink a range walk lands them in.

use crate::codec::Record;
use crate::id::StreamId;
use bytes::Bytes;

/// One entry in a stream: an ID plus an opaque payload.
///
/// A 17-byte record frame sits inside its [`Bytes`], so an entry is 40
/// contiguous bytes in the window and each subscription that reads it
/// takes a 40-byte copy — important for the Figure 6 throughput numbers
/// where one published fact reaches up to 40×32 subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Unique, monotonically increasing ID (embeds the ms timestamp).
    pub id: StreamId,
    /// Opaque payload; telemetry uses the [`crate::codec::Record`] encoding.
    pub payload: Bytes,
}

// A layout regression (a payload pushed back out to the heap) fails to compile.
const _: () = assert!(std::mem::size_of::<Bytes>() == 24);
const _: () = assert!(std::mem::size_of::<Entry>() == 40);

impl Entry {
    /// Construct an entry.
    pub fn new(id: StreamId, payload: impl Into<Bytes>) -> Self {
        Self { id, payload: payload.into() }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Where a range walk lands its rows: the archive's slab ring and the
/// stream window are each walked once, under the stream's window read
/// lock, generically over the sink. A walk makes one pass, and its caller
/// sized the sink for both spans before the first row lands. A
/// `Vec<Entry>` materialises entries; a column landing takes a ring row's
/// fields and decodes each window payload where the walk finds it, and
/// never builds an entry.
pub(crate) trait RowSink {
    /// A ring row: the record a slot's loaded words hold.
    fn push_record(&mut self, id: StreamId, record: Record);
    /// The window's rows, in bulk; a payload need not be a record.
    fn push_entries<'a>(&mut self, entries: impl Iterator<Item = &'a Entry>);
}

/// A ring row is encoded into the entry in place: the sink allocates
/// only the `Vec`.
impl RowSink for Vec<Entry> {
    fn push_record(&mut self, id: StreamId, record: Record) {
        self.push(Entry::new(id, record.encode()));
    }
    fn push_entries<'a>(&mut self, entries: impl Iterator<Item = &'a Entry>) {
        self.extend(entries.cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let e = Entry::new(StreamId::new(1, 2), vec![1u8, 2, 3]);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert_eq!(e.id, StreamId::new(1, 2));
    }

    #[test]
    fn clone_shares_payload_storage() {
        let e = Entry::new(StreamId::new(0, 0), vec![0u8; 1024]);
        let c = e.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(e.payload.as_ptr(), c.payload.as_ptr());
    }

    #[test]
    fn empty_payload() {
        let e = Entry::new(StreamId::MIN, Vec::<u8>::new());
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
