//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Paillier works modulo `n` and `n²`, both odd, so every hot modular
//! exponentiation in the workspace goes through this context. The multiplier
//! is the word-level CIOS (coarsely integrated operand scanning) algorithm;
//! exponentiation uses a fixed 4-bit window.

use crate::biguint::BigUint;

/// Precomputed state for repeated multiplication modulo a fixed odd modulus.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus `m` (odd, > 1).
    modulus: BigUint,
    /// Limb count `k`; R = 2^(64k).
    k: usize,
    /// `-m^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R² mod m`, used to convert into Montgomery form.
    r2: BigUint,
    /// `R mod m` — the unit element of the Montgomery domain
    /// (`to_mont(1 mod m)`), kept so every exponentiation and every
    /// multi-exponentiation kernel starts without a conversion multiply.
    one_mont: BigUint,
}

impl MontgomeryCtx {
    /// Builds a context for odd `modulus > 1`; returns `None` otherwise.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let k = modulus.limbs().len();
        let n0_inv = neg_inv_u64(modulus.limbs()[0]);
        // R² mod m computed by repeated doubling: start from R mod m
        // (obtained by shifting) and double 64k times.
        let r_mod_m = &(&BigUint::one() << (64 * k)) % modulus;
        let mut r2 = r_mod_m.clone();
        for _ in 0..64 * k {
            r2 = r2.add_mod(&r2.clone(), modulus);
        }
        Some(MontgomeryCtx {
            modulus: modulus.clone(),
            k,
            n0_inv,
            r2,
            one_mont: r_mod_m,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Converts `x < m` into Montgomery form `x·R mod m`.
    pub fn to_mont(&self, x: &BigUint) -> BigUint {
        debug_assert!(x < &self.modulus);
        self.mont_mul(x, &self.r2)
    }

    /// Converts out of Montgomery form: `x̄ · R^{-1} mod m`.
    pub fn from_mont(&self, x: &BigUint) -> BigUint {
        self.mont_mul(x, &BigUint::one())
    }

    /// Montgomery product `a·b·R^{-1} mod m` (CIOS).
    #[allow(clippy::needless_range_loop)] // index form mirrors the CIOS recurrence
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let k = self.k;
        let m = self.modulus.limbs();
        let a_limbs = a.limbs();
        let b_limbs = b.limbs();

        // t holds k+1 limbs plus a one-bit overflow in t[k+1].
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            let ai = a_limbs.get(i).copied().unwrap_or(0);

            // t += ai * b
            let mut carry = 0u64;
            for j in 0..k {
                let bj = b_limbs.get(j).copied().unwrap_or(0);
                let sum = t[j] as u128 + ai as u128 * bj as u128 + carry as u128;
                t[j] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = t[k] as u128 + carry as u128;
            t[k] = sum as u64;
            t[k + 1] += (sum >> 64) as u64; // ≤ 1

            // u = t[0] * (-m^{-1}) mod 2^64; t += u*m; t >>= 64
            let u = t[0].wrapping_mul(self.n0_inv);
            let first = t[0] as u128 + u as u128 * m[0] as u128;
            debug_assert_eq!(first as u64, 0);
            let mut carry = (first >> 64) as u64;
            for j in 1..k {
                let sum = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
                t[j - 1] = sum as u64;
                carry = (sum >> 64) as u64;
            }
            let sum = t[k] as u128 + carry as u128;
            t[k - 1] = sum as u64;
            let c2 = (sum >> 64) as u64;
            t[k] = t[k + 1] + c2; // both ≤ 1, no overflow
            t[k + 1] = 0;
        }

        let mut result = BigUint::from_limbs(t[..=k].to_vec());
        if result >= self.modulus {
            result = result.checked_sub(&self.modulus).expect("CIOS result < 2m");
        }
        debug_assert!(result < self.modulus);
        result
    }

    /// `R mod m` — the multiplicative identity of the Montgomery domain.
    ///
    /// Equal to `to_mont(1 mod m)`; exposed so exponentiation kernels can
    /// seed their accumulators without a conversion multiply.
    pub fn one_mont(&self) -> &BigUint {
        &self.one_mont
    }

    /// Reduces `base` below the modulus (no-op clone when already reduced).
    pub(crate) fn reduce(&self, base: &BigUint) -> BigUint {
        if base >= &self.modulus {
            base % &self.modulus
        } else {
            base.clone()
        }
    }

    /// Odd powers are not enough for interleaved window scans, so the
    /// window tables hold every power `base^0 ..= base^max_index` in
    /// Montgomery form (`table[j] = base^j · R mod m`).
    pub(crate) fn window_table(&self, base_mont: &BigUint, max_index: usize) -> Vec<BigUint> {
        let mut table = Vec::with_capacity(max_index + 1);
        table.push(self.one_mont.clone());
        if max_index >= 1 {
            table.push(base_mont.clone());
        }
        for i in 2..=max_index {
            table.push(self.mont_mul(&table[i - 1], base_mont));
        }
        table
    }

    /// MSB-first 4-bit digits of `exp` (no leading zero digit for
    /// `exp > 0`; empty for `exp = 0`).
    pub(crate) fn exp_windows4(exp: &BigUint) -> Vec<u8> {
        let bits = exp.bit_length();
        let windows = bits.div_ceil(4);
        let mut digits = Vec::with_capacity(windows);
        for w in (0..windows).rev() {
            let mut idx = 0u8;
            for bit in 0..4 {
                let pos = w * 4 + bit;
                if pos < bits && exp.bit(pos) {
                    idx |= 1 << bit;
                }
            }
            digits.push(idx);
        }
        digits
    }

    /// Square-and-multiply over precomputed 4-bit window digits; the
    /// shared inner loop of [`Self::pow_mod`] and [`Self::pow_many`].
    fn pow_windows(&self, table: &[BigUint], digits: &[u8]) -> BigUint {
        let mut acc = self.one_mont.clone();
        for (i, &d) in digits.iter().enumerate() {
            if i > 0 {
                for _ in 0..4 {
                    acc = self.mont_mul(&acc, &acc);
                }
            }
            if d != 0 {
                acc = self.mont_mul(&acc, &table[d as usize]);
            }
        }
        self.from_mont(&acc)
    }

    /// `base^exp mod m` using a 4-bit fixed window.
    ///
    /// `base` may be ≥ m; it is reduced first.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return &BigUint::one() % &self.modulus;
        }
        let base_mont = self.to_mont(&self.reduce(base));
        let table = self.window_table(&base_mont, 15);
        self.pow_windows(&table, &Self::exp_windows4(exp))
    }

    /// Raises many bases to one shared exponent: `[b^exp mod m; bases]`.
    ///
    /// The exponent's window decomposition is computed once and the
    /// Montgomery context (R², one) is shared, so a batch costs strictly
    /// less than independent [`Self::pow_mod`] calls while producing
    /// limb-identical results. This is the batch-encryption nonce kernel:
    /// every `r^n mod n²` of a batch rides one decomposition of `n`.
    pub fn pow_many(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        if exp.is_zero() {
            let one = &BigUint::one() % &self.modulus;
            return vec![one; bases.len()];
        }
        let digits = Self::exp_windows4(exp);
        bases
            .iter()
            .map(|base| {
                let base_mont = self.to_mont(&self.reduce(base));
                let table = self.window_table(&base_mont, 15);
                self.pow_windows(&table, &digits)
            })
            .collect()
    }
}

/// `-m0^{-1} mod 2^64` for odd `m0`, by Newton–Hensel lifting
/// (doubles correct bits each step: 5 iterations ≥ 64 bits).
fn neg_inv_u64(m0: u64) -> u64 {
    debug_assert!(m0 & 1 == 1);
    let mut inv = m0; // correct to 3 bits for odd m0 (x ≡ x^{-1} mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    debug_assert_eq!(m0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::rng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&b(100)).is_none());
        assert!(MontgomeryCtx::new(&b(101)).is_some());
    }

    #[test]
    fn neg_inv_property() {
        for m0 in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(m0);
            assert_eq!(m0.wrapping_mul(ninv), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn roundtrip_mont_form() {
        let m = b(0xFFFF_FFFF_FFFF_FFC5); // large 64-bit prime
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for v in [0u128, 1, 2, 0xDEAD_BEEF, 0xFFFF_FFFF_FFFF_FFC4] {
            let x = b(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn mont_mul_matches_naive() {
        let mut r = rng(21);
        for bits in [64usize, 128, 512, 1024] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, true); // make odd
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for _ in 0..8 {
                let a = gen_biguint_below(&mut r, &m);
                let bv = gen_biguint_below(&mut r, &m);
                let am = ctx.to_mont(&a);
                let bm = ctx.to_mont(&bv);
                let got = ctx.from_mont(&ctx.mont_mul(&am, &bm));
                let want = &(&a * &bv) % &m;
                assert_eq!(got, want, "{bits} bits");
            }
        }
    }

    #[test]
    fn pow_mod_small_cases() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(2), &b(10)), b(1024));
        assert_eq!(ctx.pow_mod(&b(2), &b(0)), b(1));
        assert_eq!(ctx.pow_mod(&b(0), &b(5)), b(0));
        assert_eq!(ctx.pow_mod(&b(5), &b(1)), b(5));
        // Fermat: a^(p-1) = 1 mod p
        assert_eq!(ctx.pow_mod(&b(123456), &b(1_000_000_006)), b(1));
    }

    #[test]
    fn pow_mod_reduces_large_base() {
        let m = b(97);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(1000), &b(3)), b(1000u128.pow(3) % 97));
    }

    #[test]
    fn pow_mod_matches_naive_square_multiply() {
        let mut r = rng(77);
        let mut m = gen_biguint_bits(&mut r, 256);
        m.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for _ in 0..4 {
            let base = gen_biguint_below(&mut r, &m);
            let exp = gen_biguint_bits(&mut r, 96);
            // naive square-and-multiply with plain div_rem reduction
            let mut acc = BigUint::one();
            for i in (0..exp.bit_length()).rev() {
                acc = &acc.square() % &m;
                if exp.bit(i) {
                    acc = &(&acc * &base) % &m;
                }
            }
            assert_eq!(ctx.pow_mod(&base, &exp), acc);
        }
    }

    #[test]
    fn pow_many_matches_individual_pow_mod() {
        let mut r = rng(78);
        let mut m = gen_biguint_bits(&mut r, 512);
        m.set_bit(0, true);
        m.set_bit(511, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let exp = gen_biguint_bits(&mut r, 256);
        let bases: Vec<BigUint> = (0..5).map(|_| gen_biguint_below(&mut r, &m)).collect();
        let got = ctx.pow_many(&bases, &exp);
        for (base, g) in bases.iter().zip(&got) {
            assert_eq!(g, &ctx.pow_mod(base, &exp));
        }
        // Zero exponent: everything is 1 mod m.
        assert_eq!(
            ctx.pow_many(&bases, &BigUint::zero()),
            vec![BigUint::one(); 5]
        );
    }

    #[test]
    fn one_mont_is_montgomery_unit() {
        let m = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.one_mont(), &ctx.to_mont(&BigUint::one()));
        let x = ctx.to_mont(&b(12345));
        assert_eq!(ctx.mont_mul(&x, ctx.one_mont()), x);
    }

    #[test]
    fn modulus_one_limb_edge() {
        // Smallest usable odd modulus.
        let m = b(3);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.pow_mod(&b(2), &b(2)), b(1));
        assert_eq!(ctx.pow_mod(&b(2), &b(3)), b(2));
    }
}
