//! Plaintext-slot packing: many small values per Paillier ciphertext.
//!
//! A Paillier plaintext is an element of `Z_n` — at 1024-bit keys, over a
//! thousand bits of message space — yet the DBSCAN protocols ship values of
//! a few dozen bits per ciphertext: a DGK verdict slot is `c·r` for a tiny
//! `c`, a masked distance is `dist² + v`. This module packs `capacity`
//! such slots into one plaintext word
//!
//! ```text
//! word = Σ_i  m_i · 2^{i·slot_bits},      0 ≤ m_i < 2^{slot_bits}
//! ```
//!
//! so one encryption, one wire ciphertext, and one CRT decryption carry
//! `capacity` logical values — the homomorphic-batching optimization of
//! Samanthula et al.'s outsourced k-means, applied to the response legs of
//! this workspace's protocols.
//!
//! Three operations cover every use:
//!
//! * [`PublicKey::pack_encrypt`] — encrypt plaintext slots directly: one
//!   `g^word` shortcut and **one** nonce per word, instead of one
//!   exponentiation pair per slot.
//! * [`PublicKey::pack_ciphertexts`] — build packed words from *per-slot
//!   ciphertext contributions*: slot `i` of a word is
//!   `E(m_i)^{2^{i·slot_bits}}`, so a responder holding one small
//!   ciphertext per slot (a masked DGK cell, a homomorphic dot product)
//!   multiplies shifted slots together, adds a plaintext slot vector (the
//!   masks/offsets), and re-randomizes the whole word with one fresh
//!   encryption.
//! * [`PrivateKey::unpack_decrypt`] / [`SlotLayout::split_word`] — one CRT
//!   decryption per word, then a pure bit-split back into slots.
//!
//! ## Why slots cannot overflow into neighbors
//!
//! Packing is only sound if every slot value stays strictly below
//! `2^{slot_bits}` *and* the whole word stays below `n`. The layout
//! guarantees the second from the first: `capacity` is chosen as
//! `⌊(n_bits − 1)/slot_bits⌋`, so even with every slot at its maximum the
//! word is `< 2^{capacity·slot_bits} ≤ 2^{n_bits−1} ≤ n`. The first is the
//! caller's carry-guard obligation, checked where the values are known
//! ([`PublicKey::pack_encrypt`] rejects oversized slots with
//! [`PaillierError::SlotOverflow`]) and established by construction where
//! they are encrypted (protocol layers derive `slot_bits` as
//! `value_bits + mask_bits + 1` from the *public* bounds on value and mask,
//! so `value + mask` has a guard bit of headroom). Since each slot receives
//! exactly one value — packing adds shifted slots, never slot-to-slot sums
//! — no carries can arise between slots.

use crate::error::PaillierError;
use crate::keys::{Ciphertext, PrivateKey, PublicKey};
use ppds_bigint::{multi_exp, random, BigUint};
use rand::Rng;

/// Version tag of the slot-packing discipline, stamped into benchmark
/// artifacts so a recorded run names the packed-word layout scheme it
/// used (`slots-v1` = shift-packed words, `⌊(n_bits−1)/slot_bits⌋`
/// capacity, offset-shifted signed slots).
pub const PACKING_DISCIPLINE: &str = "slots-v1";

/// How plaintext slots are laid out inside one Paillier word.
///
/// Both parties derive the layout from *public* data only (the key size and
/// the protocol's agreed value/mask bounds), so no extra negotiation is
/// needed. A layout of capacity 1 is the degenerate one-value word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    slot_bits: usize,
    capacity: usize,
}

impl SlotLayout {
    /// Layout with `slot_bits`-wide slots under a `key_bits`-bit modulus:
    /// `capacity = ⌊(key_bits − 1)/slot_bits⌋`. Returns `None` when not
    /// even one slot fits; the protocol layer rejects such configurations
    /// before any frame is sent.
    pub fn new(key_bits: usize, slot_bits: usize) -> Option<SlotLayout> {
        if slot_bits == 0 {
            return None;
        }
        let capacity = key_bits.saturating_sub(1) / slot_bits;
        (capacity >= 1).then_some(SlotLayout {
            slot_bits,
            capacity,
        })
    }

    /// Layout sized for masked values: a slot holds `value + mask` where
    /// `value < 2^{value_bits}` and `mask < 2^{mask_bits}`, plus one carry
    /// guard bit so the sum can never reach the slot boundary.
    pub fn for_masked_values(
        key_bits: usize,
        value_bits: usize,
        mask_bits: usize,
    ) -> Option<SlotLayout> {
        SlotLayout::new(key_bits, value_bits + mask_bits + 1)
    }

    /// Bits per slot.
    pub fn slot_bits(&self) -> usize {
        self.slot_bits
    }

    /// Slots per word.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words needed to carry `count` slots: `⌈count/capacity⌉`.
    pub fn words_for(&self, count: usize) -> usize {
        count.div_ceil(self.capacity)
    }

    /// Exclusive upper bound of one slot: `2^{slot_bits}`.
    pub fn slot_limit(&self) -> BigUint {
        &BigUint::one() << self.slot_bits
    }

    /// The plaintext multiplier that moves a value into slot `index` of a
    /// word: `2^{index·slot_bits}`.
    ///
    /// # Panics
    /// Panics if `index ≥ capacity`.
    pub fn slot_shift(&self, index: usize) -> BigUint {
        assert!(index < self.capacity, "slot {index} beyond capacity");
        &BigUint::one() << (index * self.slot_bits)
    }

    /// Assembles one plaintext word from at most `capacity` slot values.
    ///
    /// # Errors
    /// [`PaillierError::SlotOverflow`] if any value needs more than
    /// `slot_bits` bits.
    pub fn assemble_word(&self, slots: &[BigUint]) -> Result<BigUint, PaillierError> {
        assert!(
            slots.len() <= self.capacity,
            "word holds {} slots",
            self.capacity
        );
        let mut word = BigUint::zero();
        for (i, slot) in slots.iter().enumerate() {
            if slot.bit_length() > self.slot_bits {
                return Err(PaillierError::SlotOverflow {
                    slot_bits: self.slot_bits,
                    value_bits: slot.bit_length(),
                });
            }
            word = &word + &(slot << (i * self.slot_bits));
        }
        Ok(word)
    }

    /// Splits a decrypted word back into `count` slot values
    /// (`count ≤ capacity`; trailing unused slots are ignored).
    pub fn split_word(&self, word: &BigUint, count: usize) -> Vec<BigUint> {
        let limit = self.slot_limit();
        (0..count.min(self.capacity))
            .map(|i| &(word >> (i * self.slot_bits)) % &limit)
            .collect()
    }

    /// Samples a uniform nonzero slot mask in `[1, 2^{mask_bits})`. Used by
    /// the packed DGK reply, where a zero mask would erase the verdict.
    pub fn sample_slot_mask<R: Rng + ?Sized>(rng: &mut R, mask_bits: usize) -> BigUint {
        loop {
            let candidate = random::gen_biguint_bits(rng, mask_bits);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }
}

impl PublicKey {
    /// Encrypts `slots` as packed words: `⌈slots.len()/capacity⌉`
    /// ciphertexts, each costing one `g^word` shortcut multiplication and
    /// **one** nonce exponentiation — versus one full encryption per value
    /// at capacity 1.
    ///
    /// # Errors
    /// [`PaillierError::SlotOverflow`] if a slot value exceeds the layout's
    /// slot width (the carry guard that keeps slots from bleeding into
    /// their neighbors).
    pub fn pack_encrypt<R: Rng + ?Sized>(
        &self,
        layout: &SlotLayout,
        slots: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        slots
            .chunks(layout.capacity())
            .map(|chunk| {
                let word = layout.assemble_word(chunk)?;
                self.encrypt(&word, rng)
            })
            .collect()
    }

    /// Builds packed response words from per-slot ciphertext contributions
    /// plus a per-slot plaintext addend (a mask, an offset — zero when
    /// none): word `w` is
    /// `Π_i items[w·cap + i]^{2^{i·slot_bits}} · E(Σ_i plain[w·cap+i]·2^{i·slot_bits})`,
    /// i.e. slot `i` decrypts to `D(items[i]) + plain[i]`. The trailing
    /// `E(…)` carries the one fresh nonce that re-randomizes the whole word,
    /// so no per-item re-randomization is needed.
    ///
    /// The caller owns the carry-guard argument: every
    /// `D(items[i]) + plain[i]` must lie in `[0, 2^{slot_bits})` — the
    /// protocol layers guarantee this from public bounds (see the module
    /// docs). Values are *residues*: a signed item plus a large enough
    /// plaintext offset lands in the non-negative slot range exactly.
    ///
    /// # Errors
    /// [`PaillierError::SlotOverflow`] if a plaintext addend alone exceeds
    /// the slot width (ciphertext contributions cannot be checked without
    /// the secret key).
    pub fn pack_ciphertexts<R: Rng + ?Sized>(
        &self,
        layout: &SlotLayout,
        items: &[Ciphertext],
        plain: &[BigUint],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        assert_eq!(items.len(), plain.len(), "one plaintext addend per slot");
        items
            .chunks(layout.capacity())
            .zip(plain.chunks(layout.capacity()))
            .map(|(item_chunk, plain_chunk)| {
                let word_plain = layout.assemble_word(plain_chunk)?;
                // One fresh encryption per word: carries the plaintext
                // addends and re-randomizes every slot at once.
                let word = self.encrypt(&word_plain, rng)?;
                if item_chunk.is_empty() {
                    return Ok(word);
                }
                // Π items[i]^{2^{i·slot_bits}} in one interleaved
                // multi-exponentiation: the squaring chain is shared across
                // all slots instead of re-walked per slot. Slot shifts are
                // always < n (capacity·slot_bits ≤ key_bits−1), so the
                // `mod n` reduction in the per-slot `mul_plain` path was the
                // identity and the product is the same group element —
                // word bytes are unchanged.
                let shifts: Vec<BigUint> = (0..item_chunk.len())
                    .map(|i| layout.slot_shift(i))
                    .collect();
                let pairs: Vec<(&BigUint, &BigUint)> =
                    item_chunk.iter().map(|c| &c.0).zip(shifts.iter()).collect();
                let shifted = multi_exp(self.mont_nn(), &pairs);
                Ok(Ciphertext(self.mul_mod_nn(&word.0, &shifted)))
            })
            .collect()
    }
}

impl PrivateKey {
    /// Decrypts packed words and splits them into `count` slot values:
    /// **one** CRT decryption per word. The sequential convenience form —
    /// protocol layers decrypt the words on a worker pool and call
    /// [`SlotLayout::split_word`] per word instead.
    ///
    /// # Errors
    /// [`PaillierError::InvalidCiphertext`] on malformed words;
    /// [`PaillierError::SlotCountMismatch`] if `words` cannot carry
    /// exactly `count` slots.
    pub fn unpack_decrypt(
        &self,
        layout: &SlotLayout,
        words: &[Ciphertext],
        count: usize,
    ) -> Result<Vec<BigUint>, PaillierError> {
        if words.len() != layout.words_for(count) {
            return Err(PaillierError::SlotCountMismatch {
                words: words.len(),
                expected: layout.words_for(count),
            });
        }
        // One Montgomery batch inversion validates the whole word vector
        // (same accept/reject set and error as per-word validation), so the
        // decryption loop can skip the per-ciphertext GCD.
        self.public().validate_many(words)?;
        let mut out = Vec::with_capacity(count);
        for (w, word) in words.iter().enumerate() {
            let plain = self.decrypt_crt_prevalidated(word)?;
            let remaining = count - w * layout.capacity();
            out.extend(layout.split_word(&plain, remaining));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{rng, shared_keypair};

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn layout_capacity_math() {
        // 256-bit key, 23-bit slots: ⌊255/23⌋ = 11 slots per word.
        let layout = SlotLayout::new(256, 23).unwrap();
        assert_eq!(layout.capacity(), 11);
        assert_eq!(layout.words_for(11), 1);
        assert_eq!(layout.words_for(12), 2);
        assert_eq!(layout.words_for(0), 0);
        // 1024-bit key, 48-bit slots: the ~20x factor the protocols quote.
        assert_eq!(SlotLayout::new(1024, 48).unwrap().capacity(), 21);
        // Slot wider than the message space: no layout.
        assert!(SlotLayout::new(16, 23).is_none());
        assert!(SlotLayout::new(256, 0).is_none());
        // Masked-value sizing adds the carry guard bit.
        let masked = SlotLayout::for_masked_values(256, 6, 16).unwrap();
        assert_eq!(masked.slot_bits(), 23);
    }

    #[test]
    fn word_roundtrip_is_exact() {
        let layout = SlotLayout::new(256, 20).unwrap();
        let slots: Vec<BigUint> = [0u64, 1, (1 << 20) - 1, 12345, 0, 999_999]
            .iter()
            .map(|&v| b(v))
            .collect();
        let word = layout
            .assemble_word(&slots[..layout.capacity().min(slots.len())])
            .unwrap();
        let back = layout.split_word(&word, slots.len());
        assert_eq!(back, slots);
    }

    #[test]
    fn oversized_slot_rejected() {
        let layout = SlotLayout::new(256, 20).unwrap();
        let err = layout.assemble_word(&[b(1 << 20)]).unwrap_err();
        assert!(matches!(err, PaillierError::SlotOverflow { .. }));
    }

    #[test]
    fn pack_encrypt_unpack_roundtrip() {
        let kp = shared_keypair();
        let mut r = rng(90);
        let layout = SlotLayout::new(kp.public.bits(), 24).unwrap();
        let slots: Vec<BigUint> = (0..25u64).map(|i| b(i * 654_321 % (1 << 24))).collect();
        let words = kp.public.pack_encrypt(&layout, &slots, &mut r).unwrap();
        assert_eq!(words.len(), layout.words_for(slots.len()));
        let back = kp
            .private
            .unpack_decrypt(&layout, &words, slots.len())
            .unwrap();
        assert_eq!(back, slots);
    }

    #[test]
    fn pack_ciphertexts_adds_slotwise() {
        // Slot i of a packed word must decrypt to D(items[i]) + plain[i]:
        // the parity between packed-word arithmetic and scalar Paillier.
        let kp = shared_keypair();
        let mut r = rng(91);
        let layout = SlotLayout::new(kp.public.bits(), 30).unwrap();
        let values: Vec<u64> = (0..13).map(|i| i * 1000 + 7).collect();
        let addends: Vec<u64> = (0..13).map(|i| 500_000 - i * 3).collect();
        let items: Vec<Ciphertext> = values
            .iter()
            .map(|&v| kp.public.encrypt(&b(v), &mut r).unwrap())
            .collect();
        let plain: Vec<BigUint> = addends.iter().map(|&v| b(v)).collect();
        let words = kp
            .public
            .pack_ciphertexts(&layout, &items, &plain, &mut r)
            .unwrap();
        let back = kp
            .private
            .unpack_decrypt(&layout, &words, values.len())
            .unwrap();
        for i in 0..values.len() {
            assert_eq!(back[i], b(values[i] + addends[i]), "slot {i}");
        }
    }

    #[test]
    fn pack_ciphertexts_matches_naive_shift_fold() {
        // The multi-exp kernel must reproduce the per-slot shift-and-multiply
        // fold byte for byte. Drive both from identically-seeded RNGs so the
        // word encryptions use the same nonces.
        let kp = shared_keypair();
        let mut setup = rng(95);
        let layout = SlotLayout::new(kp.public.bits(), 30).unwrap();
        let items: Vec<Ciphertext> = (0..13u64)
            .map(|i| kp.public.encrypt(&b(i * 7 + 1), &mut setup).unwrap())
            .collect();
        let plain: Vec<BigUint> = (0..13u64).map(b).collect();

        let mut r_kernel = rng(96);
        let packed = kp
            .public
            .pack_ciphertexts(&layout, &items, &plain, &mut r_kernel)
            .unwrap();

        let mut r_naive = rng(96);
        let naive: Vec<Ciphertext> = items
            .chunks(layout.capacity())
            .zip(plain.chunks(layout.capacity()))
            .map(|(item_chunk, plain_chunk)| {
                let word_plain = layout.assemble_word(plain_chunk).unwrap();
                let mut word = kp.public.encrypt(&word_plain, &mut r_naive).unwrap();
                for (i, item) in item_chunk.iter().enumerate() {
                    word = kp
                        .public
                        .add(&word, &kp.public.mul_plain(item, &layout.slot_shift(i)));
                }
                word
            })
            .collect();
        assert_eq!(packed, naive, "kernel and fold must agree byte-for-byte");
    }

    #[test]
    fn packed_words_are_rerandomized() {
        let kp = shared_keypair();
        let mut r = rng(92);
        let layout = SlotLayout::new(kp.public.bits(), 30).unwrap();
        let item = kp.public.encrypt(&b(5), &mut r).unwrap();
        let w1 = kp
            .public
            .pack_ciphertexts(
                &layout,
                std::slice::from_ref(&item),
                &[BigUint::zero()],
                &mut r,
            )
            .unwrap();
        let w2 = kp
            .public
            .pack_ciphertexts(&layout, &[item], &[BigUint::zero()], &mut r)
            .unwrap();
        assert_ne!(w1, w2, "each word carries a fresh nonce");
    }

    #[test]
    fn word_count_mismatch_rejected() {
        let kp = shared_keypair();
        let mut r = rng(93);
        let layout = SlotLayout::new(kp.public.bits(), 24).unwrap();
        let words = kp
            .public
            .pack_encrypt(&layout, &[b(1), b(2)], &mut r)
            .unwrap();
        let err = kp
            .private
            .unpack_decrypt(&layout, &words, 2 + layout.capacity())
            .unwrap_err();
        assert!(matches!(err, PaillierError::SlotCountMismatch { .. }));
    }

    #[test]
    fn slot_masks_are_nonzero() {
        let mut r = rng(94);
        for _ in 0..200 {
            let m = SlotLayout::sample_slot_mask(&mut r, 8);
            assert!(!m.is_zero());
            assert!(m.bit_length() <= 8);
        }
    }
}
