//! Stream entries, and the sink a range walk lands them in.

use crate::codec::Record;
use crate::id::StreamId;

/// One entry in a stream: an ID plus the record it holds.
///
/// An entry is 40 contiguous bytes in the window, and each subscription
/// that reads it takes a 40-byte copy — important for the Figure 6
/// throughput numbers where one published fact reaches up to 40×32
/// subscribers. Every entry is a record, so every one the window evicts
/// fits a ring slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Unique, monotonically increasing ID (embeds the ms timestamp).
    pub id: StreamId,
    /// The `(timestamp, value, provenance)` tuple.
    pub record: Record,
}

// A layout regression (a record grown past its fields) fails to compile.
const _: () = assert!(std::mem::size_of::<Entry>() == 40);

impl Entry {
    /// Construct an entry.
    pub fn new(id: StreamId, record: Record) -> Self {
        Self { id, record }
    }
}

/// Where a range walk lands its rows: the archive's slab ring and the
/// stream window are each walked once, under the stream's window read
/// lock, generically over the sink. A walk makes one pass, and its caller
/// sized the sink for both spans before the first row lands. A
/// `Vec<Entry>` materialises entries; a column landing takes each row's
/// fields and never builds an entry.
pub(crate) trait RowSink {
    /// A ring row: the record a slot's loaded words hold.
    fn push_record(&mut self, id: StreamId, record: Record);
    /// The window's rows, in bulk.
    fn push_entries<'a>(&mut self, entries: impl Iterator<Item = &'a Entry>);
}

/// The sink allocates only the `Vec`.
impl RowSink for Vec<Entry> {
    fn push_record(&mut self, id: StreamId, record: Record) {
        self.push(Entry::new(id, record));
    }
    fn push_entries<'a>(&mut self, entries: impl Iterator<Item = &'a Entry>) {
        self.extend(entries.copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let record = Record::measured(3_000_000, 1.5);
        let e = Entry::new(StreamId::new(1, 2), record);
        assert_eq!(e.id, StreamId::new(1, 2));
        assert_eq!(e.record, record);
        // The record sits in the entry: 40 bytes in all, and nothing on the heap.
        assert_eq!(std::mem::size_of_val(&e), 40);
    }

    #[test]
    fn empty_payload() {
        // An empty payload is not a record, so no door turns it into an entry.
        assert_eq!(Record::of_frame(&[]), None);
        let e = Entry::new(StreamId::MIN, Record::measured(0, 0.0));
        assert_eq!((e.record.timestamp_ns, e.record.value.to_bits()), (0, 0));
    }
}
