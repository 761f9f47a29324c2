//! The update-batch codec: one header plus N updates, with exact bit
//! accounting and fail-closed decoding.
//!
//! A batch payload is `gamma0(count)` followed by `count` update records
//! in the engine's wire encoding — exactly the shape [`CausalEngine`]
//! broadcasts, factored out so the batching layer, the engine and the
//! differential tests all speak one format. The accounting identity is
//! exact and pinned by tests:
//!
//! ```text
//! encode_batch(us).bits() == header_bits(us.len()) + Σ u.encoded_bits()
//! ```
//!
//! so `encoded_bits()` becomes a per-batch amortized cost: the single
//! header is shared by every update it fronts, which is what extends the
//! Theorem 12 message-size measurements to batched regimes.
//!
//! Decoding **fails closed**: a truncated or corrupt batch yields a
//! [`BatchDecodeError`] naming the failing update index and *no* updates
//! — never a silently applied prefix. (The previous engine behaviour
//! buffered each update as it decoded and kept the prefix on error; see
//! `CausalEngine::try_receive` for the repaired delivery path.)
//!
//! [`CausalEngine`]: crate::engine::CausalEngine

use crate::engine::Update;
use crate::wire::{gamma0_len, BitReader, BitWriter};
use haec_model::{Payload, StoreConfig};
use std::fmt;

/// Exact size in bits of the batch header fronting `count` updates.
pub fn header_bits(count: usize) -> usize {
    gamma0_len(count as u64)
}

/// Encodes a batch: `gamma0(count)` then each update in order.
pub fn encode_batch(updates: &[Update], config: StoreConfig) -> Payload {
    let mut w = BitWriter::new();
    w.write_gamma0(updates.len() as u64);
    for u in updates {
        u.encode(&mut w, config);
    }
    w.finish()
}

/// Why a batch failed to decode, and where.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchDecodeError {
    /// Index of the update whose record failed to decode; `None` when the
    /// batch header itself (or the batch framing — trailing garbage after
    /// the last record) is at fault.
    pub index: Option<usize>,
    /// Bit offset at which decoding failed.
    pub at_bit: usize,
}

impl fmt::Display for BatchDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "batch update {i} malformed at bit {}", self.at_bit),
            None => write!(f, "batch framing malformed at bit {}", self.at_bit),
        }
    }
}

impl std::error::Error for BatchDecodeError {}

/// Decodes a batch payload, all-or-nothing.
///
/// # Errors
///
/// Fails closed with the failing update index on the first record that
/// does not decode, with `index: None` if the count header is malformed
/// or bits trail the final record. On error no updates are returned — a
/// corrupt batch never yields a usable prefix.
pub fn decode_batch(
    payload: &Payload,
    config: StoreConfig,
) -> Result<Vec<Update>, BatchDecodeError> {
    let mut r = BitReader::new(payload);
    let count = r.read_count().map_err(|e| BatchDecodeError {
        index: None,
        at_bit: e.at_bit,
    })?;
    let mut updates = Vec::with_capacity(count);
    for i in 0..count {
        let u = Update::decode(&mut r, config).map_err(|e| BatchDecodeError {
            index: Some(i),
            at_bit: e.at_bit,
        })?;
        updates.push(u);
    }
    if r.remaining() != 0 {
        return Err(BatchDecodeError {
            index: None,
            at_bit: r.position(),
        });
    }
    Ok(updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CausalEngine, UpdateOp};
    use haec_model::{Dot, ObjectId, ReplicaId, Value};

    fn cfg() -> StoreConfig {
        StoreConfig::new(3, 4)
    }

    fn sample_updates(n: usize) -> Vec<Update> {
        let mut e = CausalEngine::new(ReplicaId::new(0), cfg());
        (0..n)
            .map(|i| match i % 3 {
                0 => e.local_update(
                    ObjectId::new((i % 4) as u32),
                    UpdateOp::Write(Value::new(i as u64)),
                ),
                1 => e.local_update(ObjectId::new(0), UpdateOp::Add(Value::new(i as u64))),
                _ => e.local_update(
                    ObjectId::new(1),
                    UpdateOp::Remove(Value::new(1), vec![Dot::new(ReplicaId::new(0), 1)]),
                ),
            })
            .collect()
    }

    /// The accounting identity the batching layer is built on: the batch
    /// is exactly one shared header plus the sum of the per-update
    /// encodings, for every batch size including zero.
    #[test]
    fn batch_bits_are_header_plus_sum_of_updates() {
        for n in [0usize, 1, 2, 5, 17] {
            let us = sample_updates(n);
            let p = encode_batch(&us, cfg());
            let expected: usize =
                header_bits(n) + us.iter().map(|u| u.encoded_bits(cfg())).sum::<usize>();
            assert_eq!(p.bits(), expected, "batch of {n}");
        }
    }

    #[test]
    fn roundtrip_clean_batches() {
        for n in [0usize, 1, 3, 9] {
            let us = sample_updates(n);
            let p = encode_batch(&us, cfg());
            assert_eq!(decode_batch(&p, cfg()).unwrap(), us, "batch of {n}");
        }
    }

    /// Fire fixture: truncating anywhere inside update `i` reports index
    /// `i` and returns nothing — never the updates before the cut.
    #[test]
    fn truncated_batch_fails_closed_with_index() {
        let us = sample_updates(4);
        let p = encode_batch(&us, cfg());
        let header = header_bits(4);
        let mut boundaries = vec![header];
        for u in &us {
            boundaries.push(boundaries.last().unwrap() + u.encoded_bits(cfg()));
        }
        // Cut in the middle of each record.
        for (i, pair) in boundaries.windows(2).enumerate() {
            let cut = (pair[0] + pair[1]) / 2;
            let prefix = BitReader::new(&p).read_payload(cut).unwrap();
            let err = decode_batch(&prefix, cfg()).unwrap_err();
            assert_eq!(err.index, Some(i), "cut at bit {cut}");
        }
    }

    /// Fire fixture: flipped bits inside a record must not let a decoded
    /// prefix through either.
    #[test]
    fn corrupt_header_and_trailing_garbage_fail_closed() {
        // Corrupt count header: a run of 64+ zeros is no gamma code.
        let junk = Payload::from_bytes(vec![0u8; 10]);
        let err = decode_batch(&junk, cfg()).unwrap_err();
        assert_eq!(err.index, None);

        // Trailing garbage after a well-formed batch is framing
        // corruption, not a decodable batch.
        let us = sample_updates(2);
        let clean = encode_batch(&us, cfg());
        let mut w = BitWriter::new();
        w.append_payload(&clean);
        w.write_bits(0b1, 1);
        let padded = w.finish();
        let err = decode_batch(&padded, cfg()).unwrap_err();
        assert_eq!(err.index, None);
        assert_eq!(err.at_bit, clean.bits());
    }

    /// A count the payload cannot possibly carry fails fast instead of
    /// allocating for it.
    #[test]
    fn absurd_count_fails_before_allocating() {
        let mut w = BitWriter::new();
        w.write_gamma0(1 << 40);
        let p = w.finish();
        let err = decode_batch(&p, cfg()).unwrap_err();
        assert_eq!(err.index, None);
    }

    /// Clean fixture: the engine's own broadcast decodes to exactly its
    /// outbox.
    #[test]
    fn engine_message_is_a_clean_batch() {
        let mut e = CausalEngine::new(ReplicaId::new(1), cfg());
        e.local_update(ObjectId::new(2), UpdateOp::Inc);
        e.local_update(ObjectId::new(3), UpdateOp::Enable);
        let msg = e.pending_message().unwrap();
        let us = decode_batch(&msg, cfg()).unwrap();
        assert_eq!(us.len(), 2);
        assert_eq!(us[0].op, UpdateOp::Inc);
        assert_eq!(us[1].op, UpdateOp::Enable);
    }
}
