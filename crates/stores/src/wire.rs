//! Bit-exact wire format.
//!
//! Theorem 12 lower-bounds *message size in bits*, so the stores encode
//! their messages with a hand-rolled bit-level format and report exact bit
//! counts. Unbounded integers (sequence numbers, values) use **Elias gamma
//! coding**, whose length is `2⌊lg v⌋ + 1` bits — so message sizes genuinely
//! grow logarithmically with operation counts, matching the `lg k` factor in
//! the bound.

use haec_model::{Dot, ObjectId, Payload, ReplicaId, StoreConfig, Value};
use std::fmt;

/// Writes a bit stream and finishes into a [`Payload`] with exact bit
/// length.
///
/// ```
/// use haec_stores::wire::{BitWriter, BitReader};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_gamma(42);
/// let p = w.finish();
/// let mut r = BitReader::new(&p);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_gamma().unwrap(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    bits: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.bits
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        let byte = self.bits / 8;
        if byte == self.buf.len() {
            self.buf.push(0);
        }
        if bit {
            self.buf[byte] |= 1 << (self.bits % 8);
        }
        self.bits += 1;
    }

    /// Appends the low `width` bits of `value`, least-significant first.
    ///
    /// The full closed width range `0..=64` is supported: `width == 0`
    /// writes nothing (and requires `value == 0`), `width == 64` writes the
    /// whole word. No shift ever reaches the word size, so the edge widths
    /// cannot trip the debug-mode shift-overflow checks.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width too large");
        assert!(
            width == 64 || value >> width == 0,
            "value {value} does not fit in {width} bits"
        );
        // Byte-at-a-time: fill the partial tail byte, then whole bytes.
        let mut v = value;
        let mut remaining = width as usize;
        while remaining > 0 {
            let off = self.bits % 8;
            if off == 0 {
                self.buf.push(0);
            }
            let take = (8 - off).min(remaining);
            let chunk = (v & ((1u64 << take) - 1)) as u8;
            self.buf[self.bits / 8] |= chunk << off;
            v >>= take;
            self.bits += take;
            remaining -= take;
        }
    }

    /// Appends `value ≥ 1` in Elias gamma coding: `⌊lg v⌋` zeros, a one,
    /// then the `⌊lg v⌋` low-order bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` (gamma codes positive integers; use
    /// [`write_gamma0`](Self::write_gamma0) for zero-based values).
    pub fn write_gamma(&mut self, value: u64) {
        assert!(value >= 1, "gamma coding requires value >= 1");
        let n = 63 - value.leading_zeros(); // ⌊lg value⌋
        for _ in 0..n {
            self.write_bit(false);
        }
        self.write_bit(true);
        self.write_bits(value & ((1u64 << n) - 1), n);
    }

    /// Gamma-codes `value + 1`, allowing zero.
    pub fn write_gamma0(&mut self, value: u64) {
        self.write_gamma(value + 1);
    }

    /// Appends every bit of `p`, preserving its exact bit length. This is
    /// how envelope formats embed opaque sub-payloads without rounding
    /// them up to byte boundaries.
    pub fn append_payload(&mut self, p: &Payload) {
        let mut r = BitReader::new(p);
        let mut left = p.bits();
        while left > 0 {
            let take = left.min(64) as u32;
            let chunk = r.read_bits(take).expect("append_payload stays in bounds");
            self.write_bits(chunk, take);
            left -= take as usize;
        }
    }

    /// Appends a dot: the replica id in `width_for(n_replicas)` bits, then
    /// the gamma-coded sequence number.
    pub(crate) fn write_dot(&mut self, d: Dot, config: StoreConfig) {
        self.write_bits(u64::from(d.replica.as_u32()), width_for(config.n_replicas));
        self.write_gamma(u64::from(d.seq));
    }

    /// Appends an object id in `width_for(n_objects)` bits.
    pub(crate) fn write_obj(&mut self, obj: ObjectId, config: StoreConfig) {
        self.write_bits(u64::from(obj.as_u32()), width_for(config.n_objects));
    }

    /// Appends a dot list: `gamma0(count)` then each dot.
    pub(crate) fn write_dots(&mut self, dots: &[Dot], config: StoreConfig) {
        self.write_gamma0(dots.len() as u64);
        for &d in dots {
            self.write_dot(d, config);
        }
    }

    /// Appends one dotted register write `(dot, obj, value)` — the record
    /// the stores that run their own broadcast (COPS, sequencer, bounded)
    /// send.
    pub(crate) fn write_dotted_write(&mut self, w: (Dot, ObjectId, Value), config: StoreConfig) {
        let (dot, obj, value) = w;
        self.write_dot(dot, config);
        self.write_obj(obj, config);
        self.write_gamma0(value.as_u64());
    }

    /// Finishes the stream.
    pub fn finish(self) -> Payload {
        Payload::from_bits(self.buf, self.bits)
    }
}

/// Error returned when a reader runs out of bits or sees a malformed code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Bit offset at which decoding failed.
    pub at_bit: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed or truncated bit stream at bit {}",
            self.at_bit
        )
    }
}

impl std::error::Error for DecodeError {}

/// Reads a bit stream produced by [`BitWriter`].
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    payload: &'a Payload,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a payload.
    pub fn new(payload: &'a Payload) -> Self {
        BitReader { payload, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.payload.bits().saturating_sub(self.pos)
    }

    /// Current bit offset from the start of the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns an error at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, DecodeError> {
        if self.pos >= self.payload.bits() {
            return Err(DecodeError { at_bit: self.pos });
        }
        let byte = self.payload.bytes()[self.pos / 8];
        let bit = byte >> (self.pos % 8) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits, least-significant first. Like the writer, the
    /// full closed range `0..=64` is supported without any full-word
    /// shift.
    ///
    /// # Errors
    ///
    /// Returns an error at end of stream (the stream position is left at
    /// the end; decode errors are terminal).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        assert!(width <= 64, "width too large");
        if self.remaining() < width as usize {
            self.pos = self.payload.bits();
            return Err(DecodeError { at_bit: self.pos });
        }
        let mut out = 0u64;
        let mut got = 0usize;
        while got < width as usize {
            let off = self.pos % 8;
            let take = (8 - off).min(width as usize - got);
            let byte = self.payload.bytes()[self.pos / 8];
            let chunk = u64::from(byte >> off) & ((1u64 << take) - 1);
            out |= chunk << got;
            self.pos += take;
            got += take;
        }
        Ok(out)
    }

    /// Extracts the next `bits` bits as a standalone [`Payload`] — the
    /// inverse of [`BitWriter::append_payload`].
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `bits` bits remain.
    pub fn read_payload(&mut self, bits: usize) -> Result<Payload, DecodeError> {
        if self.remaining() < bits {
            self.pos = self.payload.bits();
            return Err(DecodeError { at_bit: self.pos });
        }
        let mut w = BitWriter::new();
        let mut left = bits;
        while left > 0 {
            let take = left.min(64) as u32;
            w.write_bits(self.read_bits(take)?, take);
            left -= take as usize;
        }
        Ok(w.finish())
    }

    /// Reads an Elias-gamma-coded positive integer.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a run of more than 63 zeros.
    pub fn read_gamma(&mut self) -> Result<u64, DecodeError> {
        let mut n = 0u32;
        while !self.read_bit()? {
            n += 1;
            if n > 63 {
                return Err(DecodeError { at_bit: self.pos });
            }
        }
        let low = self.read_bits(n)?;
        Ok((1u64 << n) | low)
    }

    /// Reads a zero-based gamma code written by
    /// [`BitWriter::write_gamma0`].
    ///
    /// # Errors
    ///
    /// As for [`read_gamma`](Self::read_gamma).
    pub fn read_gamma0(&mut self) -> Result<u64, DecodeError> {
        Ok(self.read_gamma()? - 1)
    }

    /// Reads an index into a domain of `n` values from `width_for(n)` bits.
    /// The field can hold values past `n` whenever `n` is not a power of
    /// two; such an index is corrupt (it would run off whatever the domain
    /// indexes) and is rejected.
    pub(crate) fn read_index(&mut self, n: usize) -> Result<usize, DecodeError> {
        let i = self.read_bits(width_for(n))?;
        if i >= n as u64 {
            return Err(DecodeError { at_bit: self.pos });
        }
        Ok(i as usize)
    }

    /// Reads a `gamma0` element count that is safe to allocate for: every
    /// element occupies at least one bit, so a count no stream of this
    /// length could carry is itself corrupt.
    pub(crate) fn read_count(&mut self) -> Result<usize, DecodeError> {
        let count = self.read_gamma0()?;
        if count > self.remaining() as u64 {
            return Err(DecodeError { at_bit: self.pos });
        }
        Ok(count as usize)
    }

    /// Reads a dot written by [`BitWriter::write_dot`], rejecting a replica
    /// id outside the configuration.
    pub(crate) fn read_dot(&mut self, config: StoreConfig) -> Result<Dot, DecodeError> {
        let replica = ReplicaId::new(self.read_index(config.n_replicas)? as u32);
        Ok(Dot::new(replica, self.read_gamma()? as u32))
    }

    /// Reads an object id written by [`BitWriter::write_obj`], rejecting
    /// ids outside the configuration.
    pub(crate) fn read_obj(&mut self, config: StoreConfig) -> Result<ObjectId, DecodeError> {
        Ok(ObjectId::new(self.read_index(config.n_objects)? as u32))
    }

    /// Reads a dot list written by [`BitWriter::write_dots`].
    pub(crate) fn read_dots(&mut self, config: StoreConfig) -> Result<Vec<Dot>, DecodeError> {
        (0..self.read_count()?)
            .map(|_| self.read_dot(config))
            .collect()
    }

    /// Reads a record written by [`BitWriter::write_dotted_write`].
    pub(crate) fn read_dotted_write(
        &mut self,
        config: StoreConfig,
    ) -> Result<(Dot, ObjectId, Value), DecodeError> {
        let (dot, obj) = (self.read_dot(config)?, self.read_obj(config)?);
        Ok((dot, obj, Value::new(self.read_gamma0()?)))
    }
}

/// Number of bits needed to store values `0..n` (at least 1).
///
/// The function is exactly `max(1, ⌈lg n⌉)`, so it is consistent at
/// power-of-two boundaries: `width_for(2^k) == k` (values `0..2^k` fit in
/// `k` bits) and `width_for(2^k + 1) == k + 1` for every `k ≥ 1`, with the
/// floor `width_for(0) == width_for(1) == width_for(2) == 1` (a domain of
/// at most two values still occupies one bit on the wire).
pub fn width_for(n: usize) -> u32 {
    let n = n.max(2) - 1;
    64 - (n as u64).leading_zeros()
}

/// The length in bits of the gamma code of `value ≥ 1`.
///
/// # Panics
///
/// Panics if `value == 0` (mirroring [`BitWriter::write_gamma`], instead
/// of the debug-mode arithmetic underflow the unguarded formula hits).
pub fn gamma_len(value: u64) -> usize {
    assert!(value >= 1, "gamma coding requires value >= 1");
    let n = 63 - value.leading_zeros() as usize;
    2 * n + 1
}

/// The length in bits of the zero-based gamma code written by
/// [`BitWriter::write_gamma0`].
pub fn gamma0_len(value: u64) -> usize {
    gamma_len(value + 1)
}

/// Canonical size in bits of one dotted value `(dot, value)` held in
/// replica state: the dot as [`BitWriter::write_dot`] encodes it plus `γ(value + 1)`.
pub(crate) fn dotted_value_bits(config: StoreConfig, d: Dot, v: Value) -> usize {
    width_for(config.n_replicas) as usize + gamma_len(u64::from(d.seq)) + gamma0_len(v.as_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD, 16);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let p = w.finish();
        assert_eq!(p.bits(), 81);
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_gamma_small_values() {
        for v in 1..200u64 {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let p = w.finish();
            assert_eq!(p.bits(), gamma_len(v), "len for {v}");
            let mut r = BitReader::new(&p);
            assert_eq!(r.read_gamma().unwrap(), v);
        }
    }

    #[test]
    fn gamma_length_is_logarithmic() {
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(3), 3);
        assert_eq!(gamma_len(4), 5);
        assert_eq!(gamma_len(1 << 20), 41);
    }

    #[test]
    fn gamma0_allows_zero() {
        let mut w = BitWriter::new();
        w.write_gamma0(0);
        w.write_gamma0(7);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_gamma0().unwrap(), 0);
        assert_eq!(r.read_gamma0().unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "requires value >= 1")]
    fn gamma_zero_panics() {
        BitWriter::new().write_gamma(0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::new().write_bits(8, 3);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        assert!(r.read_bits(3).is_err());
    }

    #[test]
    fn truncated_gamma_errors() {
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bit(false);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        assert!(r.read_gamma().is_err());
    }

    #[test]
    fn width_for_domains() {
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 1);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 2);
        assert_eq!(width_for(5), 3);
        assert_eq!(width_for(256), 8);
        assert_eq!(width_for(257), 9);
    }

    #[test]
    fn interleaved_mixed_codes() {
        let mut w = BitWriter::new();
        w.write_gamma(1000);
        w.write_bits(5, 3);
        w.write_gamma0(0);
        w.write_bit(true);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_gamma().unwrap(), 1000);
        assert_eq!(r.read_bits(3).unwrap(), 5);
        assert_eq!(r.read_gamma0().unwrap(), 0);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_payload() {
        let p = BitWriter::new().finish();
        assert_eq!(p.bits(), 0);
        let mut r = BitReader::new(&p);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn width_zero_and_sixty_four_edges() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0); // width 0 is a no-op, not a panic
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 0);
        w.write_bits(0, 64);
        let p = w.finish();
        assert_eq!(p.bits(), 128);
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn width_zero_rejects_nonzero_value() {
        BitWriter::new().write_bits(1, 0);
    }

    #[test]
    #[should_panic(expected = "width too large")]
    fn read_width_over_64_panics() {
        let p = Payload::from_bytes(vec![0; 16]);
        let _ = BitReader::new(&p).read_bits(65);
    }

    #[test]
    #[should_panic(expected = "requires value >= 1")]
    fn gamma_len_zero_panics() {
        let _ = gamma_len(0);
    }

    #[test]
    fn width_for_power_of_two_boundaries() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        for k in 1..=32u32 {
            let n = 1usize << k;
            assert_eq!(width_for(n), k, "width_for(2^{k})");
            assert_eq!(width_for(n + 1), k + 1, "width_for(2^{k}+1)");
            assert_eq!(width_for(n - 1), k.max(1), "width_for(2^{k}-1)");
        }
    }

    #[test]
    fn payload_append_extract_roundtrip() {
        let mut inner = BitWriter::new();
        inner.write_gamma(12345);
        inner.write_bits(0b1011, 4);
        let inner = inner.finish();
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.append_payload(&inner);
        w.write_gamma0(9);
        let outer = w.finish();
        assert_eq!(outer.bits(), 3 + inner.bits() + gamma0_len(9));
        let mut r = BitReader::new(&outer);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        let extracted = r.read_payload(inner.bits()).unwrap();
        assert_eq!(extracted, inner);
        assert_eq!(r.read_gamma0().unwrap(), 9);
        assert_eq!(r.remaining(), 0);
        // Extracting past the end fails closed.
        assert!(BitReader::new(&inner)
            .read_payload(inner.bits() + 1)
            .is_err());
    }

    /// Exhaustive width sweep: every width 0..=64 round-trips randomly
    /// drawn values (masked to the width), interleaved in one stream, with
    /// exact bit accounting.
    #[test]
    fn prop_roundtrip_every_width() {
        use haec_testkit::prop::{self, u64s, vecs};
        prop::check(
            "bits roundtrip widths 0..=64",
            &vecs(u64s(0..u64::MAX), 1..8),
            |raw| {
                let mut w = BitWriter::new();
                let mut expect = Vec::new();
                let mut bits = 0usize;
                for (i, &v) in raw.iter().enumerate() {
                    for width in 0..=64u32 {
                        let masked = if width == 64 {
                            v
                        } else {
                            v.rotate_left(i as u32) & ((1u64 << width) - 1)
                        };
                        w.write_bits(masked, width);
                        bits += width as usize;
                        expect.push((masked, width));
                    }
                }
                let p = w.finish();
                haec_testkit::prop_assert_eq!(p.bits(), bits);
                let mut r = BitReader::new(&p);
                for &(masked, width) in &expect {
                    haec_testkit::prop_assert_eq!(r.read_bits(width).unwrap(), masked);
                }
                haec_testkit::prop_assert_eq!(r.remaining(), 0);
                Ok(())
            },
        );
    }

    /// Gamma and gamma0 codes round-trip across the full u64 range with
    /// lengths matching `gamma_len`/`gamma0_len`.
    #[test]
    fn prop_roundtrip_gamma_codes() {
        use haec_testkit::prop::{self, u64s, vecs};
        prop::check("gamma roundtrip", &vecs(u64s(0..u64::MAX), 1..12), |raw| {
            let mut w = BitWriter::new();
            let mut bits = 0usize;
            for &v in raw {
                let g = v | 1; // gamma needs >= 1
                w.write_gamma(g);
                bits += gamma_len(g);
                w.write_gamma0(v >> 1);
                bits += gamma0_len(v >> 1);
            }
            let p = w.finish();
            haec_testkit::prop_assert_eq!(p.bits(), bits);
            let mut r = BitReader::new(&p);
            for &v in raw {
                haec_testkit::prop_assert_eq!(r.read_gamma().unwrap(), v | 1);
                haec_testkit::prop_assert_eq!(r.read_gamma0().unwrap(), v >> 1);
            }
            Ok(())
        });
    }

    #[test]
    fn gamma_extremes_roundtrip() {
        // The largest encodable values at both conventions.
        for v in [1, 2, u64::MAX - 1, u64::MAX] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let p = w.finish();
            assert_eq!(p.bits(), gamma_len(v));
            assert_eq!(BitReader::new(&p).read_gamma().unwrap(), v);
        }
        let mut w = BitWriter::new();
        w.write_gamma0(u64::MAX - 1);
        let p = w.finish();
        assert_eq!(BitReader::new(&p).read_gamma0().unwrap(), u64::MAX - 1);
    }
}
