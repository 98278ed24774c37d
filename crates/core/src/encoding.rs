//! Compact TLB-value encoding: ψ(u) as a bit-packed array of slot codes.
//!
//! A `w`-bit TLB value is treated as an array of `hmax` fixed-width codes
//! (`a_1, …, a_hmax` in the proof of Theorem 1). Code 0 means "not
//! resident" (the decoding function's `−1`); nonzero codes name a slot
//! within the page's hashed bin(s), interpreted by the allocator.
//!
//! [`TlbValue`] is the packed bit vector; it is the *only* state a TLB entry
//! carries, so its size is checked against `w` at construction.

/// A per-page slot code. `0` = not resident; the allocator defines the
/// meaning of nonzero values (see each allocator's `decode`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SlotCode(pub u32);

impl SlotCode {
    /// The "not resident" code (eq. 4's `−1`).
    pub const ABSENT: SlotCode = SlotCode(0);

    /// Whether this code marks the page as absent.
    #[inline]
    pub const fn is_absent(self) -> bool {
        self.0 == 0
    }
}

/// Words a [`TlbValue`] keeps inline before spilling to the heap.
const INLINE_WORDS: usize = 2;

/// The packed words of a [`TlbValue`]: inline up to 128 bits, so cloning,
/// creating and dropping a hardware-width value never calls the allocator.
/// Only wider values (the sparse manager's dense shadow) live on the heap.
/// The variant is a function of `count · bits` alone, so two values of the
/// same shape always share a layout and the derived equality is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }
}

/// A `w`-bit TLB value: `hmax` codes of `bits` bits, little-endian packed
/// into 64-bit words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbValue {
    words: Words,
    bits: u32,
    count: u32,
}

impl TlbValue {
    /// Creates an all-absent value holding `count` codes of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 32, or `count` is 0.
    pub fn new(count: u32, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "code width must be 1..=32 bits");
        assert!(count > 0, "value must hold at least one code");
        let words = (count as usize * bits as usize).div_ceil(64);
        Self {
            words: if words <= INLINE_WORDS {
                Words::Inline([0; INLINE_WORDS])
            } else {
                Words::Heap(vec![0; words].into_boxed_slice())
            },
            bits,
            count,
        }
    }

    /// Total size in bits (must be ≤ w; checked by the scheme).
    #[inline]
    pub fn size_bits(&self) -> u32 {
        self.count * self.bits
    }

    /// Number of codes.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Width of each code in bits.
    #[inline]
    pub fn code_bits(&self) -> u32 {
        self.bits
    }

    /// Reads code `i`.
    ///
    /// # Panics
    /// Panics if `i >= count`.
    pub fn get(&self, i: u32) -> SlotCode {
        assert!(i < self.count, "code index {i} out of range");
        let bit = i as usize * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        let words = self.words.as_slice();
        let lo = words[word] >> off;
        let val = if off + self.bits <= 64 {
            lo & mask
        } else {
            let hi = words[word + 1] << (64 - off);
            (lo | hi) & mask
        };
        SlotCode(val as u32)
    }

    /// Writes code `i`.
    ///
    /// # Panics
    /// Panics if `i >= count` or the code does not fit in `bits` bits.
    pub fn set(&mut self, i: u32, code: SlotCode) {
        assert!(i < self.count, "code index {i} out of range");
        let mask = if self.bits == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.bits) - 1
        };
        assert!(
            (code.0 as u64) <= mask,
            "code {} does not fit in {} bits",
            code.0,
            self.bits
        );
        let bit = i as usize * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        let words = self.words.as_mut_slice();
        words[word] &= !(mask << off);
        words[word] |= (code.0 as u64) << off;
        if off + self.bits > 64 {
            let spill = off + self.bits - 64;
            let hi_mask = (1u64 << spill) - 1;
            words[word + 1] &= !hi_mask;
            words[word + 1] |= (code.0 as u64) >> (64 - off);
        }
    }

    /// Whether every code is absent (the huge page has no resident pages).
    pub fn is_all_absent(&self) -> bool {
        self.words.as_slice().iter().all(|&w| w == 0)
    }

    /// Number of resident (nonzero) codes.
    pub fn resident_count(&self) -> u32 {
        (0..self.count)
            .filter(|&i| !self.get(i).is_absent())
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        for bits in 1..=32u32 {
            let count = 37;
            let mut v = TlbValue::new(count, bits);
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            for i in 0..count {
                v.set(
                    i,
                    SlotCode(i.wrapping_mul(2_654_435_761u32.wrapping_mul(i + 1)) & mask),
                );
            }
            for i in 0..count {
                let expect = i.wrapping_mul(2_654_435_761u32.wrapping_mul(i + 1)) & mask;
                assert_eq!(v.get(i).0, expect, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn starts_all_absent() {
        let v = TlbValue::new(16, 5);
        assert!(v.is_all_absent());
        assert_eq!(v.resident_count(), 0);
        for i in 0..16 {
            assert!(v.get(i).is_absent());
        }
    }

    #[test]
    fn set_then_clear_restores_absent() {
        let mut v = TlbValue::new(8, 7);
        v.set(3, SlotCode(99));
        assert_eq!(v.resident_count(), 1);
        assert!(!v.is_all_absent());
        v.set(3, SlotCode::ABSENT);
        assert!(v.is_all_absent());
    }

    #[test]
    fn neighboring_codes_do_not_clobber() {
        let mut v = TlbValue::new(10, 3);
        for i in 0..10 {
            v.set(i, SlotCode(7));
        }
        v.set(5, SlotCode(0));
        for i in 0..10 {
            assert_eq!(v.get(i).0, if i == 5 { 0 } else { 7 });
        }
    }

    #[test]
    fn word_boundary_straddling() {
        // 7-bit codes: code 9 occupies bits 63..70, straddling words 0/1.
        let mut v = TlbValue::new(20, 7);
        v.set(9, SlotCode(0b1010101));
        assert_eq!(v.get(9).0, 0b1010101);
        // Neighbors unaffected.
        assert_eq!(v.get(8).0, 0);
        assert_eq!(v.get(10).0, 0);
    }

    #[test]
    fn size_bits_matches() {
        let v = TlbValue::new(9, 7);
        assert_eq!(v.size_bits(), 63);
        let v = TlbValue::new(64, 1);
        assert_eq!(v.size_bits(), 64);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_rejected() {
        let mut v = TlbValue::new(4, 3);
        v.set(0, SlotCode(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let v = TlbValue::new(4, 3);
        v.get(4);
    }

    fn inline(v: &TlbValue) -> bool {
        matches!(v.words, Words::Inline(_))
    }

    #[test]
    fn layout_switches_to_heap_past_128_bits() {
        // 63 × 2 = 126, 64 × 2 = 128 and 65 × 2 = 130 total bits.
        for (count, want_inline) in [(63, true), (64, true), (65, false)] {
            let mut v = TlbValue::new(count, 2);
            assert_eq!(inline(&v), want_inline, "count={count}");
            assert_eq!(v.size_bits(), count * 2);
            // The last code sits at the very top of the value.
            v.set(count - 1, SlotCode(3));
            v.set(0, SlotCode(1));
            assert_eq!(v.get(count - 1).0, 3);
            assert_eq!(v.get(0).0, 1);
            assert_eq!(v.resident_count(), 2);
            v.set(count - 1, SlotCode::ABSENT);
            v.set(0, SlotCode::ABSENT);
            assert!(v.is_all_absent(), "count={count}");
        }
    }

    #[test]
    fn inline_code_straddles_words_zero_and_one() {
        // 9-bit codes × 14 = 126 bits, inline; code 7 spans bits 63..72.
        let mut v = TlbValue::new(14, 9);
        assert!(inline(&v));
        v.set(7, SlotCode(0b1_0110_1101));
        v.set(6, SlotCode(0x1FF));
        v.set(8, SlotCode(0x1FF));
        assert_eq!(v.get(7).0, 0b1_0110_1101);
        v.set(7, SlotCode(0));
        assert_eq!((v.get(6).0, v.get(7).0, v.get(8).0), (0x1FF, 0, 0x1FF));
    }

    #[test]
    fn equality_and_clone_in_both_layouts() {
        for count in [64u32, 65] {
            let mut a = TlbValue::new(count, 2);
            a.set(count - 1, SlotCode(2));
            let mut b = a.clone();
            assert_eq!(inline(&a), inline(&b));
            assert_eq!(a, b, "count={count}");
            b.set(count - 1, SlotCode(1));
            assert_ne!(a, b, "clone is a deep copy (count={count})");
            assert_eq!(a.get(count - 1).0, 2);
            b.set(count - 1, SlotCode(2));
            assert_eq!(a, b);
        }
        // Different shapes never compare equal, inline or not.
        assert_ne!(TlbValue::new(64, 2), TlbValue::new(65, 2));
        assert_ne!(TlbValue::new(32, 4), TlbValue::new(64, 2));
    }
}
