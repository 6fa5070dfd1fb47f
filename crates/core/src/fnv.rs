//! FNV-1a (64-bit), the hash every determinism pin of the workspace uses:
//! trace content hashes, merged multicore folds, campaign digests and
//! spec hashes.
//!
//! The definition is byte-serial: from the offset basis, each byte `b`
//! does `h = (h ^ b) · P`, with the multiplier `P = 2^44 + 0x1b3` every
//! pin was taken with (the published FNV prime is `2^40 + 0x1b3`).
//! [`Fnv1a`] computes exactly that, with two fast paths that give
//! bit-identical results for fewer serial steps:
//!
//! - **Word path** ([`Fnv1a::word`]). Hashing `v.to_le_bytes()` xors the
//!   high zero bytes in last, and `x ^ 0 = x`, so those `k` steps are
//!   `k` bare multiplies: one multiply by `P^k`. Only the low
//!   `8 - leading_zeros/8` bytes take a full step.
//! - **Fixed-string path** ([`Fnv1a::fixed`]). Xor with a byte changes
//!   only the low 8 bits of the state, and the low 8 bits of a sum or
//!   product depend only on the low 8 bits of its operands. So, for a
//!   fixed string `s`, hashing `s` from state `h` gives
//!   `h·P^|s| + C_s[h & 0xff]`, where `C_s[l]` is hashing `s` from `l`
//!   minus `l·P^|s|`. [`Fnv1aStr::new`] builds that 256-entry table at
//!   compile time, and the whole string costs one multiply, one load and
//!   one add.
//!
//! ```
//! use rtft_core::fnv::{Fnv1a, Fnv1aStr};
//!
//! let mut serial = Fnv1a::new();
//! serial.bytes(&300u64.to_le_bytes());
//! serial.bytes(b"release");
//!
//! const RELEASE: Fnv1aStr = Fnv1aStr::new("release");
//! let mut fast = Fnv1a::new();
//! fast.word(300);
//! fast.fixed(&RELEASE);
//! assert_eq!(fast.finish(), serial.finish());
//! ```

use std::fmt;

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier `P`: `2^44 + 0x1b3`, not the published FNV-1a 64-bit
/// prime `2^40 + 0x1b3`. Every pinned hash of the workspace was taken
/// with it, so it stays.
const PRIME: u64 = 0x1000_0000_01b3;

/// `PRIME_POW[k] = P^k` (wrapping), for the zero tail of a word.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// A running FNV-1a hash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Hash `bytes`, one serial step per byte.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    }

    /// Hash `v.to_le_bytes()`: a full step per significant low byte,
    /// then one multiply by `P^k` for the `k` high zero bytes.
    #[inline]
    pub fn word(&mut self, v: u64) {
        let len = 8 - (v.leading_zeros() / 8) as usize;
        let mut h = self.0;
        let mut rest = v;
        for _ in 0..len {
            h = (h ^ (rest & 0xff)).wrapping_mul(PRIME);
            rest >>= 8;
        }
        self.0 = h.wrapping_mul(PRIME_POW[8 - len]);
    }

    /// Hash the bytes of the string `s` was built from, in one step.
    #[inline]
    pub fn fixed(&mut self, s: &Fnv1aStr) {
        self.0 = self
            .0
            .wrapping_mul(s.pow)
            .wrapping_add(s.table[(self.0 & 0xff) as usize]);
    }

    /// The hash of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes the UTF-8 bytes written, so `write!(h, "{x:?}")` hashes what
/// `format!("{x:?}")` would hold without building the string.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A fixed string folded ahead of time for [`Fnv1a::fixed`]: `P^|s|`
/// and the 256-entry table `C_s` (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1aStr {
    pow: u64,
    table: [u64; 256],
}

impl Fnv1aStr {
    /// Fold `s` for every possible low byte of the incoming state.
    pub const fn new(s: &str) -> Self {
        let s = s.as_bytes();
        let mut pow = 1u64;
        let mut i = 0;
        while i < s.len() {
            pow = pow.wrapping_mul(PRIME);
            i += 1;
        }
        let mut table = [0u64; 256];
        let mut low = 0;
        while low < table.len() {
            let mut h = low as u64;
            let mut i = 0;
            while i < s.len() {
                h = (h ^ s[i] as u64).wrapping_mul(PRIME);
                i += 1;
            }
            table[low] = h.wrapping_sub((low as u64).wrapping_mul(pow));
            low += 1;
        }
        Fnv1aStr { pow, table }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, written out: one xor-multiply per byte.
    fn serial(state: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(PRIME))
    }

    fn words() -> Vec<u64> {
        let mut v = vec![
            0,
            1,
            0xff,
            0x100,
            0xffff,
            1 << 40,
            u64::MAX,
            i64::MAX as u64,
        ];
        v.extend((0..64).map(|s| 1u64 << s));
        v.extend((0..64).map(|s| u64::MAX >> s));
        v.push(-1_000_000i64 as u64);
        v
    }

    #[test]
    fn bytes_is_the_definition() {
        let mut h = Fnv1a::new();
        h.bytes(b"rtft");
        assert_eq!(h.finish(), serial(OFFSET, b"rtft"));
        assert_eq!(Fnv1a::new().finish(), OFFSET);
    }

    #[test]
    fn multiplier_is_the_one_the_pins_were_taken_with() {
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), (OFFSET ^ 0x61).wrapping_mul(0x1000_0000_01b3));
    }

    #[test]
    fn fmt_write_hashes_the_formatted_bytes() {
        use std::fmt::Write;
        let mut written = Fnv1a::new();
        write!(written, "{:?}", Some(42)).unwrap();
        let mut direct = Fnv1a::new();
        direct.bytes(format!("{:?}", Some(42)).as_bytes());
        assert_eq!(written, direct);
    }

    #[test]
    fn word_equals_its_little_endian_bytes() {
        for start in [OFFSET, 0, 0xff, u64::MAX, 0x1234_5678_9abc_def0] {
            for v in words() {
                let mut fast = Fnv1a(start);
                fast.word(v);
                let mut bytes = Fnv1a(start);
                bytes.bytes(&v.to_le_bytes());
                assert_eq!(fast, bytes, "word {v:#x} from {start:#x}");
            }
        }
    }

    #[test]
    fn fixed_table_equals_the_byte_fold_for_every_low_byte() {
        for s in ["", "a", "release", "simend", "detector", "\u{3c4}1"] {
            let folded = Fnv1aStr::new(s);
            for low in 0..=255u64 {
                // High bits above the low byte must not matter.
                for high in [0, 0xdead_beef_0000_0000, u64::MAX << 8] {
                    let start = high | low;
                    let mut fast = Fnv1a(start);
                    fast.fixed(&folded);
                    assert_eq!(
                        fast.finish(),
                        serial(start, s.as_bytes()),
                        "{s:?} from {start:#x}"
                    );
                }
            }
        }
    }
}
