//! Bitwise secure comparison in `O(log n0)` ciphertexts — the
//! Damgård–Geisler–Krøigaard (DGK)-style upgrade that experiment E3
//! identifies as the fix for Algorithm 1's `O(n0)` cost explosion on the
//! enhanced protocol's masked-share domains.
//!
//! Protocol (Alice holds `x`, Bob holds `y`, both `ℓ`-bit; Alice holds the
//! Paillier key):
//!
//! 1. Alice sends `E(x_i)` for every bit, most significant first.
//! 2. For each position `i` Bob homomorphically computes
//!    `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` — zero exactly when
//!    `x_i = 0`, `y_i = 1` and all more-significant bits agree, i.e. at the
//!    unique position witnessing `x < y`. (The XOR is computable because
//!    `y_j` is Bob's plaintext: `x ⊕ 0 = x`, `x ⊕ 1 = 1 − x`.)
//! 3. Bob masks each `c_i` with a fresh nonzero scalar, permutes, packs
//!    the cells into slots of shared Paillier words (re-randomized per
//!    word), and returns them; Alice decrypts and learns whether a zero
//!    slot occurs — the comparison bit and nothing else (the permutation
//!    hides the witnessing position; the scalars hide the magnitudes).
//! 4. Alice tells Bob the conclusion, mirroring Algorithm 1 step 7.
//!
//! Communication: `ℓ + ⌈ℓ/capacity⌉` ciphertexts + 1 bit,
//! `ℓ = ⌈log₂ n0⌉` — versus Algorithm 1's `n0` residues and `n0`
//! decryptions. The slot `capacity` comes from [`dgk_pack_layout`], a
//! function of public data. Both parties learn exactly the comparison
//! outcome, so the leakage profile (and therefore every theorem
//! downstream) is unchanged.
//!
//! Randomness: the mask scalars are value-rejection sampled and the
//! permutation is value-dependent, so under the old threaded-`StdRng`
//! discipline the *stream position* after a DGK call depended on the
//! inputs, so one item's draws shifted every later item's stream.
//! Every entry point now takes a [`ProtocolContext`] and keys item `i` of
//! its batch as `ctx.rng_for(i)`, so the items are order-independent and
//! evaluated on the [`crate::parallel`] worker pool.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::parallel::par_map;
use ppds_bigint::BigUint;
use ppds_paillier::{Ciphertext, Keypair, PublicKey, SlotLayout};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use rand::Rng;

/// Mask width of a reply slot: each masked cell `c·r` hides its magnitude
/// behind a uniform nonzero `r < 2^16`. A slot budgets its width, and 16
/// bits keeps the layout capacity high while staying in the
/// multiplicative-masking class: Alice learns only whether a zero slot
/// exists (a zero survives any nonzero scalar, a non-zero never becomes
/// one).
pub const DGK_PACK_MASK_BITS: usize = 16;

/// Reply layout for a DGK comparison over `domain_bound`: slots hold `c·r`
/// with `c ≤ 3ℓ+2` and `r < 2^16`, derived from public data only (Alice's
/// key size and the agreed domain), so both parties compute it locally.
/// A key too small for even one slot is a typed error; session validation
/// rejects such a configuration before any frame is sent.
pub fn dgk_pack_layout(key_bits: usize, domain_bound: u64) -> Result<SlotLayout, SmcError> {
    let ell = bit_width(domain_bound);
    let max_cell = 3 * ell as u64 + 2;
    SlotLayout::for_masked_values(key_bits, bit_width(max_cell), DGK_PACK_MASK_BITS).ok_or_else(
        || {
            SmcError::protocol(format!(
                "a {key_bits}-bit key cannot fit one DGK reply slot for domain bound \
                 {domain_bound}"
            ))
        },
    )
}

/// Bit width needed to represent `value` (at least 1).
fn bit_width(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1)
}

/// Step 1 worker: Alice's `ell` encrypted input bits, MSB first.
fn encrypt_bits<R: Rng>(
    keypair: &Keypair,
    x: u64,
    ell: usize,
    mut rng: R,
) -> Result<Vec<BigUint>, SmcError> {
    let bits: Vec<BigUint> = (0..ell)
        .rev()
        .map(|i| BigUint::from_u64((x >> i) & 1))
        .collect();
    // One shared-exponent kernel pass over all ℓ nonce exponentiations;
    // byte-identical to the former per-bit `encrypt` loop (same rng draws,
    // same pool interaction, same ladder values).
    let cts = keypair.public.encrypt_many(&bits, &mut rng)?;
    Ok(cts.into_iter().map(|c| c.as_biguint().clone()).collect())
}

/// Step 2 core: the unmasked comparison cells
/// `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` under Alice's key, in bit
/// order — zero exactly at the unique position witnessing `x < y`.
fn comparison_cells(
    alice_pk: &PublicKey,
    raw_bits: &[BigUint],
    y: u64,
    ell: usize,
) -> Result<Vec<Ciphertext>, SmcError> {
    if raw_bits.len() != ell {
        return Err(SmcError::protocol(format!(
            "expected {ell} encrypted bits, got {}",
            raw_bits.len()
        )));
    }
    let x_bits: Vec<Ciphertext> = raw_bits
        .iter()
        .map(|raw| Ciphertext::from_biguint(raw.clone()))
        .collect();
    // Batch membership check: one Montgomery batch inversion mod n in place
    // of ℓ binary GCDs, accepting/rejecting exactly as the per-bit loop did.
    alice_pk.validate_many(&x_bits)?;

    let one = BigUint::one();
    let enc_one = alice_pk.encrypt_with_nonce(&one, &one).expect("1 < n"); // deterministic E(1); masked before sending
    let three = BigUint::from_u64(3);

    // Running Σ (x_j ⊕ y_j) over the more-significant prefix, encrypted.
    let mut prefix_xor = alice_pk
        .encrypt_with_nonce(&BigUint::zero(), &one)
        .expect("0 < n");
    let mut cells = Vec::with_capacity(ell);
    for (pos, enc_x) in x_bits.iter().enumerate() {
        let y_bit = (y >> (ell - 1 - pos)) & 1;
        // c = x − y + 1 + 3·prefix  (all arithmetic under Alice's key)
        let mut c = alice_pk.add(enc_x, &alice_pk.mul_plain(&prefix_xor, &three));
        if y_bit == 1 {
            // x − 1 + 1 = x … minus y(=1): c = x + 3w + 1 − 1 = x + 3w
            // (nothing to add: −y + 1 = 0)
        } else {
            c = alice_pk.add(&c, &enc_one); // −y + 1 = 1
        }
        cells.push(c);

        // Update the prefix XOR: x ⊕ y = x when y = 0, 1 − x when y = 1.
        let xor = if y_bit == 0 {
            enc_x.clone()
        } else {
            alice_pk.sub(&enc_one, enc_x)
        };
        prefix_xor = alice_pk.add(&prefix_xor, &xor);
    }
    Ok(cells)
}

/// Step 2 worker: Bob's masked cells, permuted over **slot positions** and
/// packed `capacity` per word — `⌈ℓ/capacity⌉` ciphertexts per comparison.
/// Cell `i` is masked by a fresh nonzero `r_i` drawn from `ctx.rng_for(i)`
/// (independently keyed per cell, so the masks never depend on the
/// permutation or on each other), then cells and masks travel *together*
/// through the permutation: reply slot `s` holds `c_{σ(s)}·r_{σ(s)}`. The
/// permutation `σ` draws from the `"perm"` substream and each word is
/// re-randomized by its single packed-nonce encryption. Alice learns
/// exactly "a zero slot exists" and nothing about its position.
fn masked_packed_vector(
    alice_pk: &PublicKey,
    raw_bits: &[BigUint],
    y: u64,
    ell: usize,
    layout: &SlotLayout,
    ctx: &ProtocolContext,
) -> Result<Vec<BigUint>, SmcError> {
    let cells = comparison_cells(alice_pk, raw_bits, y, ell)?;
    let masked: Vec<Ciphertext> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let r = SlotLayout::sample_slot_mask(&mut ctx.rng_for(i as u64), DGK_PACK_MASK_BITS);
            alice_pk.mul_plain(c, &r)
        })
        .collect();
    let mut order: Vec<usize> = (0..ell).collect();
    order.shuffle(&mut ctx.narrow("perm").rng());
    let permuted: Vec<Ciphertext> = order.into_iter().map(|i| masked[i].clone()).collect();
    let zeros = vec![BigUint::zero(); ell];
    let words =
        alice_pk.pack_ciphertexts(layout, &permuted, &zeros, &mut ctx.narrow("pack").rng())?;
    Ok(words.iter().map(|c| c.as_biguint().clone()).collect())
}

/// Step 3 worker: one CRT decryption per word, then a slot split —
/// `⌈ℓ/capacity⌉` decryptions per comparison. Words are decrypted on the
/// [`crate::parallel`] pool via the shared
/// [`crate::multiplication::unpack_words`].
fn scan_packed(
    keypair: &Keypair,
    words: &[BigUint],
    ell: usize,
    layout: &SlotLayout,
) -> Result<bool, SmcError> {
    let slots = crate::multiplication::unpack_words(keypair, layout, words, ell)?;
    // A zero slot is the unique witnessing position.
    Ok(slots.iter().any(BigUint::is_zero))
}

/// Alice's side: inputs `xs` (each `< 2^63`; they are domain-encoded
/// comparison operands, far smaller), learns `xs[i] < ys[i]` for Bob's
/// equally long `ys`. `k` comparisons take **three wire rounds total** (one
/// frame of `k·ℓ` encrypted bits out, one frame of `k·⌈ℓ/capacity⌉` packed
/// reply words back, one frame of conclusions out); a single comparison is
/// the one-item batch. The reply layout is [`dgk_pack_layout`] of Alice's
/// key; a key too small for one slot is a protocol error.
///
/// Comparison `i` draws its bit encryptions from `ctx.rng_for(i)` and
/// Bob scopes its reply under `ctx.at(i)`, so outcomes, ciphertexts, and
/// the leakage profile do not depend on evaluation order, and the
/// ciphertext work runs on the [`crate::parallel`] pool.
pub fn dgk_batch_alice<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    xs: &[u64],
    domain_bound: u64,
    ctx: &ProtocolContext,
) -> Result<Vec<bool>, SmcError> {
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    let layout = dgk_pack_layout(keypair.public.bits(), domain_bound)?;
    let ell = bit_width(domain_bound);
    let bit_groups: Vec<Vec<BigUint>> = par_map(xs, |i, &x| {
        encrypt_bits(keypair, x, ell, ctx.rng_for(i as u64))
    })?;
    chan.send_batch(&bit_groups)?;

    let word_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if word_groups.len() != xs.len() {
        return Err(SmcError::protocol(format!(
            "expected {} packed comparison groups, got {}",
            xs.len(),
            word_groups.len()
        )));
    }
    let results: Vec<bool> = par_map(&word_groups, |_, words| {
        scan_packed(keypair, words, ell, &layout)
    })?;
    chan.send_batch(&results)?;
    Ok(results)
}

/// Bob's side of [`dgk_batch_alice`]: comparison `i` draws its mask
/// scalars, permutation and word nonces under `ctx.at(i)`, so each reply is
/// independent of every other item and the replies are computed in
/// parallel.
pub fn dgk_batch_bob<C: Channel>(
    chan: &mut C,
    alice_pk: &PublicKey,
    ys: &[u64],
    domain_bound: u64,
    ctx: &ProtocolContext,
) -> Result<Vec<bool>, SmcError> {
    if ys.is_empty() {
        return Ok(Vec::new());
    }
    let layout = dgk_pack_layout(alice_pk.bits(), domain_bound)?;
    let ell = bit_width(domain_bound);
    let bit_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if bit_groups.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} encrypted bit groups, got {}",
            ys.len(),
            bit_groups.len()
        )));
    }
    let out_groups: Vec<Vec<BigUint>> = par_map(&bit_groups, |i, raw_bits| {
        masked_packed_vector(alice_pk, raw_bits, ys[i], ell, &layout, &ctx.at(i as u64))
    })?;
    chan.send_batch(&out_groups)?;

    let results: Vec<bool> = chan.recv_batch()?;
    if results.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} conclusions, got {}",
            ys.len(),
            results.len()
        )));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::force_workers;
    use crate::test_helpers::{alice_keypair, ctx, rng};
    use ppds_transport::duplex;

    /// Runs one batch on two threads; returns Alice's verdicts (checked
    /// equal to Bob's) and her channel metrics.
    fn run_batch(
        xs: Vec<u64>,
        ys: Vec<u64>,
        bound: u64,
        seeds: (u64, u64),
    ) -> (Vec<bool>, ppds_transport::MetricsSnapshot) {
        let (mut achan, mut bchan) = duplex();
        let alice = std::thread::spawn(move || {
            let out =
                dgk_batch_alice(&mut achan, alice_keypair(), &xs, bound, &ctx(seeds.0)).unwrap();
            (out, achan.metrics())
        });
        let pk = &alice_keypair().public;
        let bob_view = dgk_batch_bob(&mut bchan, pk, &ys, bound, &ctx(seeds.1)).unwrap();
        let (alice_view, metrics) = alice.join().unwrap();
        assert_eq!(alice_view, bob_view, "views must agree");
        (alice_view, metrics)
    }

    /// One comparison: the one-item batch.
    fn run(x: u64, y: u64, bound: u64, seed: u64) -> bool {
        run_batch(vec![x], vec![y], bound, (seed, seed + 1)).0[0]
    }

    #[test]
    fn exhaustive_small_domain() {
        for x in 0..8u64 {
            for y in 0..8u64 {
                let seed = 100 + x * 8 + y;
                assert_eq!(run(x, y, 7, seed), x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn wide_values() {
        let bound = (1 << 40) - 1;
        for (x, y) in [
            (0u64, 1u64),
            (1, 0),
            (123_456_789, 123_456_790),
            (123_456_790, 123_456_789),
            ((1 << 40) - 1, (1 << 40) - 1),
            (0, (1 << 40) - 1),
            ((1 << 40) - 1, 0),
            (1 << 39, (1 << 39) + 1),
        ] {
            let seed = 7_000 + x % 97 + y % 89;
            assert_eq!(run(x, y, bound, seed), x < y, "{x} < {y}");
        }
    }

    #[test]
    fn equal_values_are_not_less() {
        for v in [0u64, 1, 5, 100] {
            assert!(!run(v, v, 127, 9_000 + v));
        }
    }

    #[test]
    fn truncated_bit_groups_are_protocol_errors() {
        let (mut achan, mut bchan) = duplex();
        // Fake Alice sends one group with too few encrypted bits.
        let kp = alice_keypair();
        let short: Vec<BigUint> = vec![kp
            .public
            .encrypt(&BigUint::zero(), &mut rng(1))
            .unwrap()
            .as_biguint()
            .clone()];
        achan.send_batch(&[short]).unwrap();
        let err = dgk_batch_bob(&mut bchan, &kp.public, &[3], 7, &ctx(1)).unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    #[test]
    fn batch_agrees_with_plaintext_and_collapses_rounds() {
        let bound = 1023u64;
        let xs: Vec<u64> = vec![0, 1, 400, 700, 1023, 512, 88];
        let ys: Vec<u64> = vec![1, 0, 700, 700, 0, 513, 88];
        let (alice_view, metrics) = run_batch(xs.clone(), ys.clone(), bound, (40, 41));
        for i in 0..xs.len() {
            assert_eq!(alice_view[i], xs[i] < ys[i], "{} < {}", xs[i], ys[i]);
        }
        // 3 wire rounds total for 7 comparisons (2 sent by Alice, 1
        // received), 3 logical messages per comparison.
        assert_eq!(metrics.rounds_sent, 2);
        assert_eq!(metrics.rounds_received, 1);
        assert_eq!(metrics.total_messages(), 3 * xs.len() as u64);
    }

    #[test]
    fn parallel_batch_is_byte_identical_to_sequential_batch() {
        let bound = 1023u64;
        let xs: Vec<u64> = (0..12).map(|i| i * 85).collect();
        let ys: Vec<u64> = (0..12).map(|i| 1020 - i * 85).collect();
        let run_with = |workers| {
            let _guard = force_workers(workers);
            let (out, metrics) = run_batch(xs.clone(), ys.clone(), bound, (60, 61));
            (out, metrics.total_bytes())
        };
        let (a1, bytes1) = run_with(1);
        let (a4, bytes4) = run_with(4);
        assert_eq!(a1, a4);
        assert_eq!(
            bytes1, bytes4,
            "every wire byte identical under parallelism"
        );
    }

    #[test]
    fn empty_batch_touches_no_wire() {
        let (mut achan, mut bchan) = duplex();
        let a = dgk_batch_alice(&mut achan, alice_keypair(), &[], 7, &ctx(42)).unwrap();
        let b = dgk_batch_bob(&mut bchan, &alice_keypair().public, &[], 7, &ctx(42)).unwrap();
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(achan.metrics().total_rounds(), 0);
    }

    #[test]
    fn reply_ships_ceil_ell_over_capacity_words_per_comparison() {
        // ℓ = 10. The derived layout fits every cell in one word; wider
        // slots force capacity 3 (⌈10/3⌉ = 4 words) and the degenerate
        // capacity 1 (one word per cell). The verdict is the same each time.
        let kp = alice_keypair();
        let bound = 1023u64;
        let ell = bit_width(bound);
        let key_bits = kp.public.bits();
        let derived = dgk_pack_layout(key_bits, bound).unwrap();
        let three = SlotLayout::new(key_bits, (key_bits - 1) / 3).unwrap();
        let one = SlotLayout::new(key_bits, key_bits - 1).unwrap();
        for (layout, words) in [(derived, 1), (three, 4), (one, ell)] {
            for (x, y) in [(400u64, 700u64), (700, 400), (3, 3)] {
                let bits = encrypt_bits(kp, x, ell, rng(x)).unwrap();
                let reply =
                    masked_packed_vector(&kp.public, &bits, y, ell, &layout, &ctx(y)).unwrap();
                assert_eq!(reply.len(), words, "layout {layout:?}");
                assert_eq!(reply.len(), layout.words_for(ell));
                assert_eq!(scan_packed(kp, &reply, ell, &layout).unwrap(), x < y);
            }
        }
    }

    #[test]
    fn small_keys_have_a_layout_and_tiny_keys_are_a_typed_error() {
        // ℓ = 40 needs 24-bit slots: a 16-bit key has no layout, so both
        // sides refuse before touching the wire.
        assert!(dgk_pack_layout(256, (1 << 40) - 1).is_ok());
        let err = dgk_pack_layout(16, (1 << 40) - 1).unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)), "{err}");
    }

    #[test]
    fn communication_is_logarithmic_in_domain() {
        // ℓ = 10 bits for n0 = 1023 → ℓ encrypted bits plus one reply word,
        // versus the faithful Yao protocol's 1023 residues (~16 KiB at
        // 256-bit keys).
        let bound = 1023u64;
        let (_, metrics) = run_batch(vec![400], vec![700], bound, (2, 3));
        let dgk_bytes = metrics.total_bytes();
        let (m1, m2, m3) = crate::millionaires::modeled_message_sizes(256, bound + 1);
        let yao_bytes = m1 + m2 + m3;
        assert!(
            dgk_bytes * 5 < yao_bytes,
            "DGK {dgk_bytes} B should be far below Yao {yao_bytes} B"
        );
    }
}
