//! A stable digest over a cell's model values and exact counts.
//!
//! FNV-1a over the exact bits of every value, in the order they are
//! fed, so a digest repeats bit for bit exactly when the simulated
//! outcome does.

/// Running FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a count.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a name, so that reordered or renamed fields change it.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> u64 {
        let mut d = Digest::default();
        for &v in values {
            d.f64(v);
        }
        d.value()
    }

    #[test]
    fn equal_inputs_give_equal_digests() {
        assert_eq!(of(&[1.5, 2.25, 1e-9]), of(&[1.5, 2.25, 1e-9]));
    }

    #[test]
    fn one_ulp_or_a_reorder_changes_it() {
        let base = of(&[1.5, 2.25]);
        assert_ne!(base, of(&[1.5, f64::from_bits(2.25f64.to_bits() + 1)]));
        assert_ne!(base, of(&[2.25, 1.5]));
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }
}
