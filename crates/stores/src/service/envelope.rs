//! The coalescing envelope: one wire message carrying the pending
//! payloads of many shards.
//!
//! When a replica node flushes, each of its shard instances may have a
//! pending message (an update batch for the engine-based stores, an
//! opaque payload for any other [`ReplicaMachine`]). Instead of sending
//! one network message per shard, the service coalesces them into a
//! single envelope:
//!
//! ```text
//! gamma0(n_groups)
//! repeat n_groups times:
//!     shard      : width_for(n_shards) bits
//!     length     : gamma0(payload bits)
//!     payload    : that many raw bits, verbatim
//! ```
//!
//! The sub-payloads are embedded bit-exactly (no byte padding), so the
//! accounting is exact and auditable:
//!
//! ```text
//! envelope.bits() == gamma0_len(n_groups)
//!                  + Σ (width_for(n_shards) + gamma0_len(p.bits()) + p.bits())
//! ```
//!
//! Like the update batch, decoding **fails closed**: a truncated or
//! corrupt envelope reports the failing group index and yields nothing.
//!
//! [`ReplicaMachine`]: haec_model::ReplicaMachine

use crate::wire::{gamma0_len, width_for, BitReader, BitWriter};
use haec_model::Payload;
use std::fmt;

/// Exact envelope size in bits for the given group payload sizes.
pub fn envelope_bits(group_payload_bits: &[usize], n_shards: usize) -> usize {
    let w = width_for(n_shards) as usize;
    gamma0_len(group_payload_bits.len() as u64)
        + group_payload_bits
            .iter()
            .map(|&b| w + gamma0_len(b as u64) + b)
            .sum::<usize>()
}

/// Encodes shard-tagged payload groups into one envelope.
///
/// # Panics
///
/// Panics if a group names a shard `>= n_shards`.
pub fn encode_envelope(groups: &[(usize, Payload)], n_shards: usize) -> Payload {
    let w = width_for(n_shards);
    let mut writer = BitWriter::new();
    writer.write_gamma0(groups.len() as u64);
    for (shard, payload) in groups {
        assert!(*shard < n_shards, "shard {shard} out of range");
        writer.write_bits(*shard as u64, w);
        writer.write_gamma0(payload.bits() as u64);
        writer.append_payload(payload);
    }
    writer.finish()
}

/// Why an envelope failed to decode, and where.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnvelopeDecodeError {
    /// Index of the group whose framing failed; `None` when the group
    /// count header or trailing framing is at fault.
    pub group: Option<usize>,
    /// Bit offset at which decoding failed.
    pub at_bit: usize,
}

impl fmt::Display for EnvelopeDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.group {
            Some(g) => write!(f, "envelope group {g} malformed at bit {}", self.at_bit),
            None => write!(f, "envelope framing malformed at bit {}", self.at_bit),
        }
    }
}

impl std::error::Error for EnvelopeDecodeError {}

/// Decodes an envelope into its shard-tagged payload groups,
/// all-or-nothing.
///
/// # Errors
///
/// Fails closed with the failing group index on truncation, an
/// out-of-range shard id, or trailing bits after the final group.
pub fn decode_envelope(
    payload: &Payload,
    n_shards: usize,
) -> Result<Vec<(usize, Payload)>, EnvelopeDecodeError> {
    let mut r = BitReader::new(payload);
    let framing = |at_bit| EnvelopeDecodeError {
        group: None,
        at_bit,
    };
    let count = r.read_count().map_err(|e| framing(e.at_bit))?;
    let mut groups = Vec::with_capacity(count);
    for g in 0..count {
        let at = |e: crate::wire::DecodeError| EnvelopeDecodeError {
            group: Some(g),
            at_bit: e.at_bit,
        };
        let shard = r.read_index(n_shards).map_err(at)?;
        let bits = r.read_gamma0().map_err(at)? as usize;
        let sub = r.read_payload(bits).map_err(at)?;
        groups.push((shard, sub));
    }
    if r.remaining() != 0 {
        return Err(framing(r.position()));
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_of_bits(bits: &[bool]) -> Payload {
        let mut w = BitWriter::new();
        for &b in bits {
            w.write_bit(b);
        }
        w.finish()
    }

    #[test]
    fn roundtrip_and_exact_accounting() {
        let groups = vec![
            (0usize, payload_of_bits(&[true, false, true])),
            (3, payload_of_bits(&[])),
            (2, payload_of_bits(&[false; 17])),
        ];
        let n_shards = 4;
        let env = encode_envelope(&groups, n_shards);
        let sizes: Vec<usize> = groups.iter().map(|(_, p)| p.bits()).collect();
        assert_eq!(env.bits(), envelope_bits(&sizes, n_shards));
        assert_eq!(decode_envelope(&env, n_shards).unwrap(), groups);
    }

    #[test]
    fn empty_envelope_is_one_header() {
        let env = encode_envelope(&[], 8);
        assert_eq!(env.bits(), envelope_bits(&[], 8));
        assert_eq!(decode_envelope(&env, 8).unwrap(), Vec::new());
    }

    #[test]
    fn truncation_names_the_failing_group() {
        let groups = vec![
            (1usize, payload_of_bits(&[true; 9])),
            (0, payload_of_bits(&[false; 9])),
        ];
        let env = encode_envelope(&groups, 2);
        // Cut inside the second group's payload.
        let cut = env.bits() - 4;
        let prefix = BitReader::new(&env).read_payload(cut).unwrap();
        let err = decode_envelope(&prefix, 2).unwrap_err();
        assert_eq!(err.group, Some(1));
    }

    #[test]
    fn out_of_range_shard_fails_closed() {
        // Hand-craft a group naming shard 3 where only 0..3 are valid
        // (width_for(3) = 2 bits, so the id parses but is out of range).
        let mut w = BitWriter::new();
        w.write_gamma0(1);
        w.write_bits(3, 2);
        w.write_gamma0(1);
        w.write_bit(true);
        let err = decode_envelope(&w.finish(), 3).unwrap_err();
        assert_eq!(err.group, Some(0));
    }

    #[test]
    fn trailing_bits_fail_closed() {
        let env = encode_envelope(&[(0, payload_of_bits(&[true, true]))], 2);
        let mut w = BitWriter::new();
        w.append_payload(&env);
        w.write_bit(false);
        let err = decode_envelope(&w.finish(), 2).unwrap_err();
        assert_eq!(err.group, None);
        assert_eq!(err.at_bit, env.bits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encoding_out_of_range_shard_panics() {
        let _ = encode_envelope(&[(5, Payload::default())], 4);
    }
}
