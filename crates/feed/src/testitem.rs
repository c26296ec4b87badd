//! Minimal [`FeedItem`]s used by the crate's own tests: one `u64` value
//! and an `f64` time, encoded fixed-width, time-merged or not.

use crate::codec::{ByteReader, FeedItem, MergeOrder};
use crate::error::FeedError;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TestItem {
    pub value: u64,
    pub time: f64,
}

impl TestItem {
    pub fn new(value: u64) -> TestItem {
        TestItem {
            value,
            time: value as f64,
        }
    }

    pub fn at(value: u64, time: f64) -> TestItem {
        TestItem { value, time }
    }
}

impl FeedItem for TestItem {
    const ITEM_VERSION: u8 = 7;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(&self.time.to_bits().to_le_bytes());
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, FeedError> {
        Ok(TestItem {
            value: r.u64("test value")?,
            time: r.f64("test time")?,
        })
    }

    fn order_time(&self) -> f64 {
        self.time
    }
}

/// A [`TestItem`] whose streams the collector releases as they arrive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArrivalItem(pub TestItem);

impl ArrivalItem {
    pub fn at(value: u64, time: f64) -> ArrivalItem {
        ArrivalItem(TestItem::at(value, time))
    }
}

impl FeedItem for ArrivalItem {
    const ITEM_VERSION: u8 = TestItem::ITEM_VERSION;
    const MERGE: MergeOrder = MergeOrder::Arrival;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, FeedError> {
        TestItem::decode(r).map(ArrivalItem)
    }

    fn order_time(&self) -> f64 {
        self.0.time
    }
}
