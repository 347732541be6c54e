//! A minimal binary snapshot codec.
//!
//! Checkpoint/resume demands *bit-identical* state round-trips: the resumed
//! run must replay the exact event order and RNG stream of the original, so
//! the wire format is fixed-width little-endian integers with floats carried
//! as their IEEE-754 bit patterns — no text formatting, no locale, no
//! precision loss. [`SnapWriter`] appends fields to a byte buffer and
//! [`SnapReader`] consumes them in the same order.
//!
//! A type's layout is written once, as its [`Snap`] impl: `put` and `get`
//! sit side by side, and composites (options, tuples, vectors, maps) are
//! built from their parts' impls, so the two directions cannot drift
//! apart. Any length or tag that fails to decode surfaces as a
//! [`SnapError`] rather than corrupt state.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;

use crate::hash::FastHashMap;
use crate::inline::InlineVec;
use crate::time::SimTime;

/// Decoding failure: the byte stream ended early, held an invalid value, or
/// does not fit the value it is restored into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ran out at `offset` while `needed` more bytes were
    /// required.
    Eof { offset: usize, needed: usize },
    /// A decoded field held a value outside its domain (bad bool tag, bad
    /// enum discriminant, non-UTF-8 string bytes, ...).
    Invalid { what: &'static str, value: u64 },
    /// The bytes decoded, but describe a value the receiver cannot take (a
    /// machine of another shape, another strategy, another arrival
    /// process).
    Mismatch(String),
}

impl SnapError {
    /// A decoded field outside its domain.
    pub fn invalid(what: &'static str, value: u64) -> Self {
        SnapError::Invalid { what, value }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { offset, needed } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} (needed {needed} more)"
                )
            }
            SnapError::Invalid { what, value } => {
                write!(f, "invalid snapshot field {what}: {value}")
            }
            SnapError::Mismatch(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends fixed-width little-endian fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a usize as a u64 (sizes are platform-independent on disk).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Consumes fields from a byte slice in the order they were written.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64 from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool (rejecting anything but 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::Invalid {
                what: "bool",
                value: v as u64,
            }),
        }
    }

    /// Read a usize (stored as u64; rejects values beyond the platform's
    /// usize and absurd lengths longer than the remaining buffer where used
    /// as a length prefix).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid {
            what: "usize",
            value: v,
        })
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Invalid {
                what: "byte-slice length",
                value: n as u64,
            });
        }
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| SnapError::Invalid {
            what: "utf-8 string",
            value: e.valid_up_to() as u64,
        })
    }

    /// A capacity for `n` decoded elements that a corrupt length prefix
    /// cannot inflate: every element takes at least one byte.
    fn capacity(&self, n: usize) -> usize {
        n.min(self.remaining())
    }

    /// Assert that every byte has been consumed (trailing garbage means the
    /// reader and writer disagree about the format).
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Invalid {
                what: "trailing bytes",
                value: self.remaining() as u64,
            })
        }
    }
}

/// A value with one binary layout: [`Snap::put`] appends it and
/// [`Snap::get`] reads it back, so both directions live in one impl.
pub trait Snap: Sized {
    /// Append `self` to `w`.
    fn put(&self, w: &mut SnapWriter);
    /// Read a value written by [`Snap::put`].
    fn get(r: &mut SnapReader) -> Result<Self, SnapError>;
}

macro_rules! snap_primitive {
    ($($t:ty => $m:ident),*) => {$(
        impl Snap for $t {
            fn put(&self, w: &mut SnapWriter) {
                w.$m(*self);
            }
            fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
                r.$m()
            }
        }
    )*};
}

snap_primitive!(
    u8 => u8,
    u32 => u32,
    u64 => u64,
    i64 => i64,
    f64 => f64,
    bool => bool,
    usize => usize
);

impl Snap for SimTime {
    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(SimTime(r.u64()?))
    }
}

/// Fixed-length arrays carry no length prefix.
impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = T::get(r)?;
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// A presence byte, then the value if present.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// Write a length prefix and then each element.
fn put_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.usize(items.len());
    for x in items {
        x.put(w);
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = Vec::with_capacity(r.capacity(n));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Vec::get(r)?.into())
    }
}

impl<T: Snap + Copy + Default, const N: usize> Snap for InlineVec<T, N> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Vec::get(r)?.into())
    }
}

/// A length prefix, then `(key, value)` pairs in ascending key order:
/// map iteration order must not leak into the bytes, or two snapshots of
/// one state could differ.
impl<K: Snap + Ord + Hash + Copy, V: Snap> Snap for FastHashMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        let mut keys: Vec<K> = self.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            k.put(w);
            self[&k].put(w);
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut map = FastHashMap::default();
        map.reserve(r.capacity(n));
        for _ in 0..n {
            let k = K::get(r)?;
            if map.insert(k, V::get(r)?).is_some() {
                return Err(SnapError::invalid(
                    "duplicate map key at byte",
                    r.position() as u64,
                ));
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.f64(f64::NEG_INFINITY);
        w.bool(true);
        w.bool(false);
        w.usize(12345);
        w.bytes(b"raw");
        w.str("text \u{1F980}");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "text \u{1F980}");
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_buffer_is_eof() {
        let mut w = SnapWriter::new();
        w.u64(9);
        let bytes = &w.into_bytes()[..5];
        let mut r = SnapReader::new(bytes);
        assert!(matches!(r.u64(), Err(SnapError::Eof { .. })));
    }

    #[test]
    fn bad_bool_is_invalid() {
        let mut r = SnapReader::new(&[2]);
        assert_eq!(
            r.bool(),
            Err(SnapError::Invalid {
                what: "bool",
                value: 2
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_invalid() {
        let mut w = SnapWriter::new();
        w.usize(1_000_000); // claims a megabyte that is not there
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(SnapError::Invalid { .. })));
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    fn round_trip<T: Snap>(v: &T) -> (Vec<u8>, T) {
        let mut w = SnapWriter::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::get(&mut r).unwrap();
        r.finish().unwrap();
        (bytes, back)
    }

    #[test]
    fn composites_round_trip() {
        let v: (Option<u32>, Vec<(u64, bool)>, [i64; 2]) =
            (Some(9), vec![(1, true), (u64::MAX, false)], [-1, 7]);
        assert_eq!(round_trip(&v).1, v);
        let q: VecDeque<SimTime> = [SimTime(3), SimTime(1)].into();
        assert_eq!(round_trip(&q).1, q);
        let l: InlineVec<u32, 2> = (0..5).collect();
        assert_eq!(&round_trip(&l).1[..], &l[..]);
        assert_eq!(round_trip(&None::<u8>).0, [0]);
    }

    #[test]
    fn maps_are_written_in_key_order() {
        let mut a: FastHashMap<u64, u32> = FastHashMap::default();
        let mut b: FastHashMap<u64, u32> = FastHashMap::default();
        for k in 0..100 {
            a.insert(k, k as u32 * 3);
            b.insert(99 - k, (99 - k) as u32 * 3);
        }
        let (bytes_a, back) = round_trip(&a);
        assert_eq!(bytes_a, round_trip(&b).0);
        assert_eq!(back, a);
        let mut expect = SnapWriter::new();
        expect.usize(100);
        for k in 0..100u64 {
            expect.u64(k);
            expect.u32(k as u32 * 3);
        }
        assert_eq!(bytes_a, expect.into_bytes());
    }

    #[test]
    fn corrupt_lengths_and_duplicate_keys_are_errors() {
        // A length prefix claiming 2^60 elements fails at the end of the
        // buffer instead of reserving memory for them.
        let mut w = SnapWriter::new();
        w.usize(1 << 60);
        w.u64(1);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::get(&mut SnapReader::new(&bytes)),
            Err(SnapError::Eof { .. })
        ));
        let mut w = SnapWriter::new();
        w.usize(2);
        for _ in 0..2 {
            w.u64(5);
            w.u8(0);
        }
        let bytes = w.into_bytes();
        assert!(matches!(
            <FastHashMap<u64, u8> as Snap>::get(&mut SnapReader::new(&bytes)),
            Err(SnapError::Invalid { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = SnapError::Eof {
            offset: 3,
            needed: 5,
        };
        assert!(e.to_string().contains("truncated"));
        let e = SnapError::Invalid {
            what: "bool",
            value: 9,
        };
        assert!(e.to_string().contains("bool"));
    }
}
