//! Wire encoding of telemetry records.
//!
//! Apollo stores Information as the tuple *"(timestamp, fact/insight,
//! predicted/measured(0/1))"* (§3.1). [`Record`] is that tuple; it encodes
//! to a fixed 17-byte frame:
//!
//! ```text
//! [ timestamp_ns: u64 LE ][ value: f64 LE ][ provenance: u8 ]
//! ```
//!
//! Fixed-size framing means an encoded record costs no heap allocation —
//! 17 bytes fit inside the [`Bytes`] handle, which the stream window and
//! every subscriber copy — and makes the 16 B metric-size of the Figure 6
//! throughput tests realistic.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// How a record's value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Value read from the resource by a monitor hook.
    Measured,
    /// Value forecast by the Delphi model between polls.
    Predicted,
    /// Last-known value republished while the hook is failing: the vertex
    /// could not take a fresh sample, so consumers (insights, AQE) see the
    /// previous value explicitly marked as stale rather than silence.
    Stale,
}

/// One telemetry record: the `(timestamp, value, predicted/measured)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Nanoseconds since the service epoch.
    pub timestamp_ns: u64,
    /// The fact or insight value.
    pub value: f64,
    /// Measured by a hook, or predicted by Delphi.
    pub provenance: Provenance,
}

/// Encoded size of a [`Record`] in bytes.
pub const RECORD_WIRE_SIZE: usize = 17;

/// Error decoding a [`Record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than [`RECORD_WIRE_SIZE`].
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// Provenance byte was not 0 (predicted), 1 (measured) or 2 (stale).
    BadProvenance(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { got } => {
                write!(f, "record truncated: got {got} bytes, need {RECORD_WIRE_SIZE}")
            }
            DecodeError::BadProvenance(b) => write!(f, "bad provenance byte {b}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Provenance {
    /// The wire byte of this provenance: predicted = 0, measured = 1,
    /// stale = 2. Also the element encoding of the provenance column in
    /// [`crate::stream::ColumnBatch`], so vectorized consumers compare
    /// raw bytes instead of decoding enums.
    pub const fn wire(self) -> u8 {
        match self {
            Provenance::Predicted => 0,
            Provenance::Measured => 1,
            Provenance::Stale => 2,
        }
    }

    /// Decode a wire byte (see [`Provenance::wire`]).
    pub const fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(Provenance::Predicted),
            1 => Some(Provenance::Measured),
            2 => Some(Provenance::Stale),
            _ => None,
        }
    }
}

impl Record {
    /// A measured record.
    pub fn measured(timestamp_ns: u64, value: f64) -> Self {
        Self { timestamp_ns, value, provenance: Provenance::Measured }
    }

    /// A Delphi-predicted record.
    pub fn predicted(timestamp_ns: u64, value: f64) -> Self {
        Self { timestamp_ns, value, provenance: Provenance::Predicted }
    }

    /// A stale record: a last-known value republished during a hook outage.
    pub fn stale(timestamp_ns: u64, value: f64) -> Self {
        Self { timestamp_ns, value, provenance: Provenance::Stale }
    }

    /// True when this record was measured (not predicted or stale).
    pub fn is_measured(&self) -> bool {
        self.provenance == Provenance::Measured
    }

    /// True when this record is a stale republication.
    pub fn is_stale(&self) -> bool {
        self.provenance == Provenance::Stale
    }

    /// Encode into a fresh buffer: the frame is built on the stack and
    /// copied into the handle, with no allocation.
    pub fn encode(&self) -> Bytes {
        let mut frame = [0u8; RECORD_WIRE_SIZE];
        frame[..8].copy_from_slice(&self.timestamp_ns.to_le_bytes());
        frame[8..16].copy_from_slice(&self.value.to_bits().to_le_bytes());
        frame[16] = self.provenance.wire();
        Bytes::copy_from_slice(&frame)
    }

    /// Decode from the front of `buf`: the frame [`Record::encode`] builds,
    /// read as one array.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let Some(frame) = buf.first_chunk::<RECORD_WIRE_SIZE>() else {
            return Err(DecodeError::Truncated { got: buf.len() });
        };
        // Both splits are of a fixed-length array: they cannot fail, and
        // compile to plain loads.
        let (ts, rest) = frame.split_first_chunk::<8>().expect("a frame has a timestamp");
        let (value, rest) = rest.split_first_chunk::<8>().expect("and a value");
        let b = rest[0];
        let provenance = Provenance::from_wire(b).ok_or(DecodeError::BadProvenance(b))?;
        Ok(Self {
            timestamp_ns: u64::from_le_bytes(*ts),
            value: f64::from_le_bytes(*value),
            provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_measured() {
        let r = Record::measured(123_456_789, 42.5);
        let enc = r.encode();
        assert_eq!(enc.len(), RECORD_WIRE_SIZE);
        assert_eq!(Record::decode(&enc).unwrap(), r);
    }

    #[test]
    fn round_trip_predicted() {
        let r = Record::predicted(7, -0.25);
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
        assert!(!r.is_measured());
    }

    #[test]
    fn round_trip_stale() {
        let r = Record::stale(99, 1.5);
        let d = Record::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        assert!(d.is_stale());
        assert!(!d.is_measured());
    }

    #[test]
    fn truncated_input_errors() {
        let r = Record::measured(1, 2.0).encode();
        let err = Record::decode(&r[..RECORD_WIRE_SIZE - 1]).unwrap_err();
        assert_eq!(err, DecodeError::Truncated { got: 16 });
    }

    #[test]
    fn bad_provenance_errors() {
        let mut raw = Record::measured(1, 2.0).encode().to_vec();
        raw[16] = 9;
        assert_eq!(Record::decode(&raw).unwrap_err(), DecodeError::BadProvenance(9));
    }

    #[test]
    fn special_float_values_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::MIN, f64::MAX, 0.0, -0.0] {
            let r = Record::measured(0, v);
            assert_eq!(Record::decode(&r.encode()).unwrap().value.to_bits(), v.to_bits());
        }
        let nan = Record::measured(0, f64::NAN);
        assert!(Record::decode(&nan.encode()).unwrap().value.is_nan());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn encode_decode_round_trip(ts in any::<u64>(), v in any::<f64>(), measured in any::<bool>()) {
            let r = if measured { Record::measured(ts, v) } else { Record::predicted(ts, v) };
            let d = Record::decode(&r.encode()).unwrap();
            prop_assert_eq!(d.timestamp_ns, r.timestamp_ns);
            prop_assert_eq!(d.provenance, r.provenance);
            prop_assert_eq!(d.value.to_bits(), r.value.to_bits());
        }

        #[test]
        fn decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Record::decode(&raw);
        }

        /// The fixed-frame decode answers what the field-by-field cursor
        /// answers, to the bit, on every byte string around the frame size.
        #[test]
        fn decode_matches_the_cursor_oracle(raw in proptest::collection::vec(any::<u8>(), 0..=40)) {
            match (Record::decode(&raw), cursor_decode(&raw)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.timestamp_ns, want.timestamp_ns);
                    prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
                    prop_assert_eq!(got.provenance, want.provenance);
                }
                (got, want) => prop_assert_eq!(got.unwrap_err(), want.unwrap_err()),
            }
        }
    }

    /// The oracle: a read cursor that takes the timestamp, the value and
    /// the provenance byte in turn, advancing past each.
    fn cursor_decode(mut buf: &[u8]) -> Result<Record, DecodeError> {
        if buf.len() < RECORD_WIRE_SIZE {
            return Err(DecodeError::Truncated { got: buf.len() });
        }
        let mut take = |n: usize| {
            let (head, tail) = buf.split_at(n);
            buf = tail;
            head
        };
        let timestamp_ns = u64::from_le_bytes(take(8).try_into().unwrap());
        let value = f64::from_bits(u64::from_le_bytes(take(8).try_into().unwrap()));
        let b = take(1)[0];
        let provenance = Provenance::from_wire(b).ok_or(DecodeError::BadProvenance(b))?;
        Ok(Record { timestamp_ns, value, provenance })
    }
}
