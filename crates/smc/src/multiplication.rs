//! The Multiplication Protocol (Algorithm 2, §4.1) and its batched
//! dot-product extension (§5).
//!
//! Roles follow the key, not the paper's character names, because the
//! DBSCAN protocols run it in both directions:
//!
//! * the **keyholder** owns the Paillier keypair, inputs `x`, and learns
//!   `u = x·y + v`;
//! * the **peer** inputs `y`, chooses the random mask `v`, and learns
//!   nothing (it only ever sees ciphertexts under the keyholder's key).
//!
//! In protocol HDP (§4.2) Bob is the keyholder (`x` = his attribute value)
//! and Alice the peer (`y` = her attribute value, `v` = her zero-sum blinding
//! term `r_i`). In the enhanced protocol (§5) Alice is the keyholder of the
//! dot-product form and Bob masks with `v_i`.
//!
//! All values are signed ([`BigInt`]) and ride the balanced `Z_n` encoding
//! from `ppds-paillier`; callers must keep `|x·y + v|` below `(n-1)/2`,
//! which every caller in this workspace guarantees by construction (lattice
//! coordinates and masks are tiny relative to ≥ 2^255).
//!
//! Responses are slot-packed ([`ResponsePacking`]): the peer folds its
//! masked values into `⌈count/capacity⌉` Paillier words, each word
//! re-randomized by one packed-nonce encryption.
//!
//! Randomness: every entry point takes a [`ProtocolContext`] instead of a
//! threaded generator. The `mul_batches_*` forms key each group through a
//! caller-supplied scope (`scopes(g)`) and `dot_many_peer` keys row `j` as
//! `ctx.rng_for(j)`, so the per-group ciphertext work can run on the
//! [`crate::parallel`] pool without changing a byte.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::parallel::par_map;
use ppds_bigint::{random, BigInt, BigUint};
use ppds_observe::{trace, MetricsSnapshot};
use ppds_paillier::{Ciphertext, Keypair, PublicKey, SlotLayout};
use ppds_transport::Channel;
use rand::Rng;

/// How a response leg packs its masked values into shared Paillier words:
/// the peer's replies — masked products `x·y + v`, masked distances
/// `dist² + v` — are signed, so every slot value is shifted by the public
/// `offset` into `[0, 2^{slot_bits})` before packing and shifted back
/// after unpacking. The protocol layer derives both fields from public
/// bounds (coordinate bound, mask bound, key size), so the two parties
/// always agree without negotiation. Every reply is packed; a layout of
/// capacity 1 is the degenerate one-value word.
///
/// Carry-guard argument: with `offset ≥ |value|_max + |mask|_max` and
/// `slot_bits > bits(2·offset)`, every shifted slot value is strictly
/// below the slot boundary, so packed slots can never bleed into their
/// neighbors (see `ppds_paillier::packing`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponsePacking {
    /// Slot layout under the keyholder's modulus.
    pub layout: SlotLayout,
    /// Public non-negative shift making signed slot values non-negative.
    pub offset: BigUint,
}

impl ResponsePacking {
    /// The plaintext slot addend for a signed mask/value `v`: `v + offset`.
    fn slot_plain(&self, v: &BigInt) -> Result<BigUint, SmcError> {
        let shifted = v + &BigInt::from(self.offset.clone());
        if shifted.is_negative() {
            return Err(SmcError::protocol(
                "mask below the packing offset; offset must bound the mask magnitude",
            ));
        }
        Ok(shifted.into_magnitude())
    }

    /// Recovers the signed value from an unpacked slot: `slot − offset`.
    fn recover(&self, slot: &BigUint) -> BigInt {
        &BigInt::from(slot.clone()) - &BigInt::from(self.offset.clone())
    }

    /// Decrypts packed response words on the [`crate::parallel`] pool and
    /// recovers the `count` signed slot values.
    fn unpack_signed(
        &self,
        keypair: &Keypair,
        words: &[BigUint],
        count: usize,
    ) -> Result<Vec<BigInt>, SmcError> {
        let slots = unpack_words(keypair, &self.layout, words, count)?;
        Ok(slots.iter().map(|slot| self.recover(slot)).collect())
    }

    /// Peer side of a reply: packs one product ciphertext per value, with
    /// its mask as the plaintext slot addend, into `⌈count/capacity⌉`
    /// words re-randomized by one nonce each from `scope`'s `"pack"`
    /// substream, and sends them as one message.
    fn send_words<'a, C: Channel>(
        &self,
        chan: &mut C,
        keyholder_pk: &PublicKey,
        products: &[Ciphertext],
        masks: impl Iterator<Item = &'a BigInt>,
        scope: &ProtocolContext,
    ) -> Result<(), SmcError> {
        let plains: Vec<BigUint> = masks
            .map(|v| self.slot_plain(v))
            .collect::<Result<_, _>>()?;
        let mut rng = scope.narrow("pack").rng();
        let words = keyholder_pk.pack_ciphertexts(&self.layout, products, &plains, &mut rng)?;
        let wire: Vec<BigUint> = words.iter().map(|c| c.as_biguint().clone()).collect();
        chan.send(&wire)?;
        Ok(())
    }
}

/// Decrypts packed wire words — one CRT decryption each, fanned out on the
/// [`crate::parallel`] pool — and splits them into `count` raw slot
/// values. Shared by the signed response unpack above and the DGK verdict
/// scan in [`crate::bitwise`].
pub(crate) fn unpack_words(
    keypair: &Keypair,
    layout: &SlotLayout,
    words: &[BigUint],
    count: usize,
) -> Result<Vec<BigUint>, SmcError> {
    if words.len() != layout.words_for(count) {
        return Err(SmcError::protocol(format!(
            "expected {} packed response words for {count} slots, got {}",
            layout.words_for(count),
            words.len()
        )));
    }
    // CPU-only phase: the span attributes wall time; its traffic delta is
    // structurally zero (no channel in scope).
    let span = trace::span("unpack", MetricsSnapshot::default);
    // One Montgomery batch inversion validates the whole word vector up
    // front (same accept set and error as per-word validation), so each
    // parallel decryption skips its per-ciphertext GCD.
    let cts: Vec<Ciphertext> = words
        .iter()
        .map(|raw| Ciphertext::from_biguint(raw.clone()))
        .collect();
    keypair.public.validate_many(&cts)?;
    let plains: Vec<BigUint> = par_map(&cts, |_, ct| {
        Ok::<_, SmcError>(keypair.private.decrypt_crt_prevalidated(ct)?)
    })?;
    let mut out = Vec::with_capacity(count);
    for (w, plain) in plains.iter().enumerate() {
        let remaining = count - w * layout.capacity();
        out.extend(layout.split_word(plain, remaining));
    }
    span.end(MetricsSnapshot::default);
    Ok(out)
}

/// Samples a mask uniformly from `[-bound, bound]`. The generator is taken
/// by value so call sites pass a keyed leaf stream (`ctx.rng_for(i)`) or a
/// borrowed local (`&mut rng`).
pub fn sample_mask<R: Rng>(mut rng: R, bound: &BigUint) -> BigInt {
    if bound.is_zero() {
        return BigInt::zero();
    }
    let width = &(bound << 1usize) + 1u64; // 2·bound + 1 values
    let raw = random::gen_biguint_below(&mut rng, &width);
    &BigInt::from(raw) - &BigInt::from(bound.clone())
}

/// Keyholder side of Algorithm 2 over many multiplication groups: one
/// group of inputs `x_{g,1}, …, x_{g,m}` per logical multiplication batch
/// (e.g. one group per candidate pair of a neighborhood query), all groups'
/// ciphertexts in **one** wire frame each direction. Returns
/// `u_{g,i} = x_{g,i}·y_{g,i} + v_{g,i}` per group. A single product is the
/// one-group, one-element case.
///
/// `scopes(g)` is the record scope of group `g`; its leaf stream encrypts
/// the group's inputs, so the per-group encryption work runs on the
/// [`crate::parallel`] pool without changing a byte. The reply is one flat
/// word vector carrying every group's products as slots, in group order,
/// so small groups share words instead of wasting one ciphertext each.
pub fn mul_batches_keyholder<C, S>(
    chan: &mut C,
    keypair: &Keypair,
    xs_groups: &[Vec<BigInt>],
    scopes: S,
    packing: &ResponsePacking,
) -> Result<Vec<Vec<BigInt>>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext + Sync,
{
    if xs_groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let cts_groups: Vec<Vec<BigUint>> = par_map(xs_groups, |g, xs| {
        let mut rng = scopes(g).rng();
        xs.iter()
            .map(|x| {
                keypair
                    .public
                    .encrypt_signed(x, &mut rng)
                    .map(|c| c.as_biguint().clone())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    chan.send_batch(&cts_groups)?;
    let words: Vec<BigUint> = chan.recv()?;
    let total: usize = xs_groups.iter().map(Vec::len).sum();
    let mut flat = packing.unpack_signed(keypair, &words, total)?.into_iter();
    let out = xs_groups
        .iter()
        .map(|xs| (&mut flat).take(xs.len()).collect())
        .collect();
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer side of [`mul_batches_keyholder`]: one coefficient group per
/// logical batch. `draw_masks(g)` produces group `g`'s masks `v_{g,i}`
/// from the caller's own keyed streams (HDP passes blinding terms with
/// `Σ_i v_{g,i} = 0`); the homomorphic products fan out on the
/// [`crate::parallel`] pool. Every group's products ride as shifted slots
/// of one flat word vector, the masks as plaintext addends, and each word
/// is re-randomized by its single packed-nonce encryption drawn from
/// `scopes(0)`'s `"pack"` substream. Returns the masks drawn per group.
///
/// Groups are any slice-like coefficient vectors, so a caller multiplying
/// one vector against many peer groups (HDP's neighborhood query) can pass
/// `&[&[BigInt]]` borrowing a single allocation.
pub fn mul_batches_peer<C, F, G, S>(
    chan: &mut C,
    keyholder_pk: &PublicKey,
    ys_groups: &[G],
    mut draw_masks: F,
    scopes: S,
    packing: &ResponsePacking,
) -> Result<Vec<Vec<BigInt>>, SmcError>
where
    C: Channel,
    F: FnMut(usize) -> Vec<BigInt>,
    G: AsRef<[BigInt]> + Sync,
    S: Fn(usize) -> ProtocolContext + Sync,
{
    if ys_groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let cts_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if cts_groups.len() != ys_groups.len() {
        return Err(SmcError::protocol(format!(
            "expected {} ciphertext groups, got {}",
            ys_groups.len(),
            cts_groups.len()
        )));
    }
    for (g, (cts, ys)) in cts_groups.iter().zip(ys_groups).enumerate() {
        if cts.len() != ys.as_ref().len() {
            return Err(SmcError::protocol(format!(
                "expected {} ciphertexts in group {g}, got {}",
                ys.as_ref().len(),
                cts.len()
            )));
        }
    }
    let all_masks: Vec<Vec<BigInt>> = (0..ys_groups.len())
        .map(|g| {
            let masks = draw_masks(g);
            assert_eq!(
                masks.len(),
                ys_groups[g].as_ref().len(),
                "one mask per multiplicand"
            );
            masks
        })
        .collect();
    let product_groups: Vec<Vec<Ciphertext>> = par_map(&cts_groups, |g, cts| {
        let ys = ys_groups[g].as_ref();
        let cxs: Vec<Ciphertext> = cts
            .iter()
            .map(|ct| Ciphertext::from_biguint(ct.clone()))
            .collect();
        // One batch inversion validates the whole group.
        keyholder_pk.validate_many(&cxs)?;
        Ok::<_, SmcError>(
            cxs.iter()
                .zip(ys)
                .map(|(cx, y)| keyholder_pk.mul_plain_signed(cx, y))
                .collect(),
        )
    })?;
    let products: Vec<Ciphertext> = product_groups.into_iter().flatten().collect();
    let masks = all_masks.iter().flatten();
    packing.send_words(chan, keyholder_pk, &products, masks, &scopes(0))?;
    span.end(|| chan.metrics());
    Ok(all_masks)
}

/// Keyholder side of the one-query/many-responses dot product used by the
/// enhanced protocol (§5): Alice's coefficient vector
/// `(ΣA², -2A_1, …, -2A_m, 1)` is encrypted **once**, and the peer answers
/// with one masked dot product per point of his: `u_j = Dist²(A, B_j) + v_j`,
/// packed into `⌈count/capacity⌉` words — the querier's decryption bill
/// scales with neighborhoods, not with candidate points.
pub fn dot_many_keyholder<C: Channel>(
    chan: &mut C,
    keypair: &Keypair,
    xs: &[BigInt],
    expected_responses: usize,
    packing: &ResponsePacking,
    ctx: &ProtocolContext,
) -> Result<Vec<BigInt>, SmcError> {
    let span = trace::span("dot_many", || chan.metrics());
    let mut rng = ctx.rng();
    let cts: Vec<BigUint> = xs
        .iter()
        .map(|x| {
            keypair
                .public
                .encrypt_signed(x, &mut rng)
                .map(|c| c.as_biguint().clone())
        })
        .collect::<Result<_, _>>()?;
    chan.send(&cts)?;
    let words: Vec<BigUint> = chan.recv()?;
    let out = packing.unpack_signed(keypair, &words, expected_responses)?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer side of [`dot_many_keyholder`]: one coefficient row per response,
/// each dotted against the keyholder's single encrypted vector. Returns the
/// masks `v_j` drawn (uniform in `[-mask_bound, mask_bound]`); row `j`
/// draws from `ctx.rng_for(j)`, so rows are order-independent and the
/// homomorphic accumulation fans out on the [`crate::parallel`] pool. Row
/// `j`'s dot product rides slot `j`, its mask travels as the word's
/// plaintext addend, and one packed-nonce encryption (the `"pack"`
/// substream) re-randomizes each word.
pub fn dot_many_peer<C: Channel>(
    chan: &mut C,
    keyholder_pk: &PublicKey,
    ys_rows: &[Vec<BigInt>],
    mask_bound: &BigUint,
    packing: &ResponsePacking,
    ctx: &ProtocolContext,
) -> Result<Vec<BigInt>, SmcError> {
    let span = trace::span("dot_many", || chan.metrics());
    let cts_raw: Vec<BigUint> = chan.recv()?;
    let cts: Vec<Ciphertext> = cts_raw.into_iter().map(Ciphertext::from_biguint).collect();
    // Batch validation: one Montgomery batch inversion instead of one GCD
    // per ciphertext, with the same accept set and error.
    keyholder_pk.validate_many(&cts)?;
    // Every row raises the same few ciphertexts to full-width scalars, so
    // build one fixed-base comb per ciphertext and share it across all
    // rows — evaluation then spends zero squarings per row, and the bytes
    // match the per-row mul_plain_signed/add fold exactly.
    let bases = keyholder_pk.scaled_bases(&cts);
    let per_row: Vec<(Ciphertext, BigInt)> = par_map(ys_rows, |j, ys| {
        if cts.len() != ys.len() {
            return Err(SmcError::protocol(format!(
                "dot product arity mismatch: {} ciphertexts vs {} coefficients",
                cts.len(),
                ys.len()
            )));
        }
        let v = sample_mask(ctx.rng_for(j as u64), mask_bound);
        // Neutral E(0) with nonce 1; the word's packed-nonce encryption
        // re-randomizes the whole slot vector before it ships.
        let acc = Ciphertext::from_biguint(BigUint::one());
        Ok((bases.combine_signed(keyholder_pk, &acc, ys), v))
    })?;
    let (products, masks): (Vec<Ciphertext>, Vec<BigInt>) = per_row.into_iter().unzip();
    packing.send_words(chan, keyholder_pk, &products, masks.iter(), ctx)?;
    span.end(|| chan.metrics());
    Ok(masks)
}

/// Generates `count` blinding terms that sum to zero, each component
/// uniform in `[-bound, bound]` except the last, which balances the sum —
/// the `r_1 + r_2 + … + r_m = 0` construction of protocol HDP. The
/// generator is taken by value: pass a keyed leaf stream
/// (`ctx.rng_for(record)`) so the draw is order-independent.
pub fn zero_sum_masks<R: Rng>(mut rng: R, count: usize, bound: &BigUint) -> Vec<BigInt> {
    if count == 0 {
        return Vec::new();
    }
    let mut masks: Vec<BigInt> = (0..count - 1)
        .map(|_| sample_mask(&mut rng, bound))
        .collect();
    let sum = masks.iter().fold(BigInt::zero(), |acc, m| &acc + m);
    masks.push(-&sum);
    masks
}

/// Upper bound on `|Σ x_i·y_i + v|` given element bounds; used by callers to
/// size comparison domains.
pub fn dot_product_bound(len: usize, x_bound: u64, y_bound: u64, mask_bound: &BigUint) -> BigUint {
    let per_term = BigUint::from_u128(x_bound as u128 * y_bound as u128);
    &(&per_term * len as u64) + mask_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::force_workers;
    use crate::test_helpers::{bob_keypair, ctx, rng};
    use ppds_transport::duplex;

    fn bi(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    /// The derived-width layout for `|value| + |mask| ≤ offset` on each side.
    fn test_packing(offset: u64) -> ResponsePacking {
        let bits = BigUint::from_u64(2 * offset).bit_length() + 1;
        ResponsePacking {
            layout: SlotLayout::new(bob_keypair().public.bits(), bits).unwrap(),
            offset: BigUint::from_u64(offset),
        }
    }

    /// The same offset under three layouts: the derived one, capacity 2,
    /// and the degenerate capacity 1 (one value per word).
    fn packings(offset: u64) -> Vec<ResponsePacking> {
        let key_bits = bob_keypair().public.bits();
        let derived = test_packing(offset);
        let wide = |capacity: usize| ResponsePacking {
            layout: SlotLayout::new(key_bits, (key_bits - 1) / capacity).unwrap(),
            offset: derived.offset.clone(),
        };
        let (two, one) = (wide(2), wide(1));
        assert_eq!((two.layout.capacity(), one.layout.capacity()), (2, 1));
        vec![derived, two, one]
    }

    /// Runs the keyholder in a thread and the peer (with explicit per-group
    /// masks) on the caller thread; returns the keyholder's outputs and
    /// channel metrics.
    fn run_with_masks(
        xs_groups: &[Vec<BigInt>],
        ys_groups: &[Vec<BigInt>],
        masks: &[Vec<BigInt>],
        packing: ResponsePacking,
    ) -> (Vec<Vec<BigInt>>, ppds_transport::MetricsSnapshot) {
        let (mut kchan, mut pchan) = duplex();
        let xs2 = xs_groups.to_vec();
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            let kctx = ctx(4);
            let us =
                mul_batches_keyholder(&mut kchan, bob_keypair(), &xs2, |g| kctx.at(g as u64), &p2)
                    .unwrap();
            (us, kchan.metrics())
        });
        let pctx = ctx(5);
        mul_batches_peer(
            &mut pchan,
            &bob_keypair().public,
            ys_groups,
            |g| masks[g].clone(),
            |g| pctx.at(g as u64),
            &packing,
        )
        .unwrap();
        keyholder.join().unwrap()
    }

    /// Algorithm 2 for one product: the one-group, one-element batch, the
    /// peer's mask drawn uniform in `[-mask_bound, mask_bound]`.
    fn run_single(x: i64, y: i64, mask_bound: u64) -> (BigInt, BigInt) {
        let v = sample_mask(ctx(2).rng(), &BigUint::from_u64(mask_bound));
        let (us, _) = run_with_masks(
            &[vec![bi(x)]],
            &[vec![bi(y)]],
            &[vec![v.clone()]],
            test_packing(mask_bound + 100),
        );
        (us[0][0].clone(), v)
    }

    #[test]
    fn algorithm2_identity_holds() {
        for (x, y) in [(3i64, 4i64), (0, 9), (7, 0), (-5, 6), (5, -6), (-7, -8)] {
            let (u, v) = run_single(x, y, 1000);
            assert_eq!(&u - &v, bi(x * y), "x={x}, y={y}");
        }
    }

    #[test]
    fn mask_bound_respected() {
        for seed in 0..20u64 {
            let mut r = rng(seed);
            let v = sample_mask(&mut r, &BigUint::from_u64(5));
            let v = v.to_i64().unwrap();
            assert!((-5..=5).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn zero_mask_bound_means_no_mask() {
        let (u, v) = run_single(6, 7, 0);
        assert!(v.is_zero());
        assert_eq!(u, bi(42));
    }

    #[test]
    fn masks_actually_vary() {
        let mut r = rng(3);
        let bound = BigUint::from_u64(1 << 30);
        let a = sample_mask(&mut r, &bound);
        let b = sample_mask(&mut r, &bound);
        assert_ne!(a, b);
        // Keyed leaf streams vary across records too.
        let step = ctx(9).narrow("mask");
        assert_ne!(
            sample_mask(step.rng_for(0), &bound),
            sample_mask(step.rng_for(1), &bound)
        );
    }

    #[test]
    fn one_group_products_telescope_to_the_inner_product_in_one_word() {
        let xs: Vec<BigInt> = [3i64, -1, 0, 12, 7, -9].iter().map(|&v| bi(v)).collect();
        let ys: Vec<BigInt> = [5i64, 5, -9, 2, -2, 4].iter().map(|&v| bi(v)).collect();
        let masks = vec![bi(10), bi(-4), bi(0), bi(-6), bi(3), bi(-3)]; // Σ = 0
        let packing = test_packing(1 << 12);
        assert!(
            packing.layout.capacity() >= xs.len(),
            "{:?}",
            packing.layout
        );
        let (us, metrics) = run_with_masks(
            std::slice::from_ref(&xs),
            std::slice::from_ref(&ys),
            std::slice::from_ref(&masks),
            packing,
        );
        let us = &us[0];
        for i in 0..xs.len() {
            let expect = &(&xs[i] * &ys[i]) + &masks[i];
            assert_eq!(us[i], expect, "element {i}");
        }
        // Sum telescopes to the exact inner product (masks cancel) — the
        // algebra HDP relies on.
        let sum = us.iter().fold(BigInt::zero(), |acc, u| &acc + u);
        assert_eq!(sum, bi(3 * 5 - 5 + 24 - 14 - 36));
        // All six masked products rode one reply message.
        assert_eq!(metrics.messages_received, 1);
    }

    fn run_batched_groups(
        xs_groups: &[Vec<BigInt>],
        ys_groups: &[Vec<BigInt>],
        seed_k: u64,
        seed_p: u64,
    ) -> (
        Vec<Vec<BigInt>>,
        Vec<Vec<BigInt>>,
        ppds_transport::MetricsSnapshot,
    ) {
        let (mut kchan, mut pchan) = duplex();
        let xs2 = xs_groups.to_vec();
        let packing = test_packing(1 << 12);
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            let kctx = ctx(seed_k).narrow("mul");
            let us =
                mul_batches_keyholder(&mut kchan, bob_keypair(), &xs2, |g| kctx.at(g as u64), &p2)
                    .unwrap();
            (us, kchan.metrics())
        });
        let pctx = ctx(seed_p);
        let mask_ctx = pctx.narrow("mask");
        let mul_ctx = pctx.narrow("mul");
        let sizes: Vec<usize> = ys_groups.iter().map(Vec::len).collect();
        let masks = mul_batches_peer(
            &mut pchan,
            &bob_keypair().public,
            ys_groups,
            |g| {
                zero_sum_masks(
                    mask_ctx.rng_for(g as u64),
                    sizes[g],
                    &BigUint::from_u64(1000),
                )
            },
            |g| mul_ctx.at(g as u64),
            &packing,
        )
        .unwrap();
        let (us, metrics) = keyholder.join().unwrap();
        (us, masks, metrics)
    }

    #[test]
    fn batched_groups_match_products_in_two_rounds() {
        // Three logical multiplication batches of different sizes, one wire
        // frame each way.
        let xs_groups: Vec<Vec<BigInt>> =
            vec![vec![bi(3), bi(-1)], vec![], vec![bi(12), bi(0), bi(-7)]];
        let ys_groups: Vec<Vec<BigInt>> =
            vec![vec![bi(5), bi(5)], vec![], vec![bi(2), bi(-9), bi(4)]];
        let (us, masks, metrics) = run_batched_groups(&xs_groups, &ys_groups, 20, 21);
        assert_eq!(metrics.total_rounds(), 2, "one frame each direction");
        for g in 0..xs_groups.len() {
            assert_eq!(us[g].len(), xs_groups[g].len());
            for i in 0..xs_groups[g].len() {
                let expect = &(&xs_groups[g][i] * &ys_groups[g][i]) + &masks[g][i];
                assert_eq!(us[g][i], expect, "group {g} element {i}");
            }
            // Zero-sum masks cancel per group: Σu = the exact inner product.
            let sum = us[g].iter().fold(BigInt::zero(), |acc, u| &acc + u);
            let ip = xs_groups[g]
                .iter()
                .zip(&ys_groups[g])
                .fold(BigInt::zero(), |acc, (x, y)| &acc + &(x * y));
            assert_eq!(sum, ip, "group {g}");
        }
    }

    #[test]
    fn parallel_batches_are_byte_identical() {
        // Same batched exchange with 1 worker and with 4: every wire byte
        // (and thus every mask and nonce) must match.
        let xs_groups: Vec<Vec<BigInt>> = (0..6).map(|g| vec![bi(g), bi(-g), bi(2 * g)]).collect();
        let ys_groups: Vec<Vec<BigInt>> = (0..6).map(|g| vec![bi(1), bi(g), bi(-3)]).collect();
        let (us_1, masks_1, _) = {
            let _guard = force_workers(1);
            run_batched_groups(&xs_groups, &ys_groups, 40, 41)
        };
        let (us_4, masks_4, _) = {
            let _guard = force_workers(4);
            run_batched_groups(&xs_groups, &ys_groups, 40, 41)
        };
        assert_eq!(us_1, us_4);
        assert_eq!(masks_1, masks_4);
    }

    #[test]
    fn batched_group_arity_mismatch_is_protocol_error() {
        let (mut kchan, mut pchan) = duplex();
        let packing = test_packing(1 << 12);
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            let kctx = ctx(22);
            // Two groups sent; peer expects three.
            let _ = mul_batches_keyholder(
                &mut kchan,
                bob_keypair(),
                &[vec![bi(1)], vec![bi(2)]],
                |g| kctx.at(g as u64),
                &p2,
            );
        });
        let pctx = ctx(23);
        let err = mul_batches_peer(
            &mut pchan,
            &bob_keypair().public,
            &[vec![bi(1)], vec![bi(2)], vec![bi(3)]],
            |g| {
                vec![sample_mask(
                    pctx.narrow("mask").rng_for(g as u64),
                    &BigUint::from_u64(5),
                )]
            },
            |g| pctx.narrow("mul").at(g as u64),
            &packing,
        )
        .unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
        drop(pchan);
        let _ = keyholder.join();
    }

    #[test]
    fn mul_reply_ships_ceil_slots_over_capacity_words() {
        // Six products over three groups, answered to a hand-driven
        // keyholder so the reply words can be counted.
        let kp = bob_keypair();
        let xs_groups: Vec<Vec<BigInt>> =
            vec![vec![bi(3), bi(-1)], vec![bi(7)], vec![bi(0), bi(2), bi(5)]];
        let ys_groups: Vec<Vec<BigInt>> =
            vec![vec![bi(5), bi(5)], vec![bi(-2)], vec![bi(1), bi(4), bi(-6)]];
        let masks: Vec<Vec<BigInt>> = vec![vec![bi(9), bi(-9)], vec![bi(4)], vec![bi(-1); 3]];
        let mut r = rng(6);
        let cts: Vec<Vec<BigUint>> = xs_groups
            .iter()
            .map(|xs| {
                xs.iter()
                    .map(|x| {
                        kp.public
                            .encrypt_signed(x, &mut r)
                            .unwrap()
                            .as_biguint()
                            .clone()
                    })
                    .collect()
            })
            .collect();
        for packing in packings(1 << 12) {
            let (mut kchan, mut pchan) = duplex();
            kchan.send_batch(&cts).unwrap();
            mul_batches_peer(
                &mut pchan,
                &kp.public,
                &ys_groups,
                |g| masks[g].clone(),
                |g| ctx(7).at(g as u64),
                &packing,
            )
            .unwrap();
            let words: Vec<BigUint> = kchan.recv().unwrap();
            assert_eq!(words.len(), 6usize.div_ceil(packing.layout.capacity()));
            let flat = packing.unpack_signed(kp, &words, 6).unwrap();
            let expect: Vec<BigInt> = (xs_groups.iter().flatten().zip(ys_groups.iter().flatten()))
                .zip(masks.iter().flatten())
                .map(|((x, y), v)| &(x * y) + v)
                .collect();
            assert_eq!(flat, expect, "layout {:?}", packing.layout);
        }
    }

    /// Runs one `dot_many` exchange; returns the keyholder's shares and the
    /// peer's masks.
    fn run_dot_many(
        xs: &[BigInt],
        ys_rows: &[Vec<BigInt>],
        mask_bound: &BigUint,
    ) -> (Vec<BigInt>, Vec<BigInt>) {
        let (mut kchan, mut pchan) = duplex();
        let xs2 = xs.to_vec();
        let rows = ys_rows.len();
        let packing = test_packing(mask_bound.to_u64().unwrap() + (1 << 12));
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            dot_many_keyholder(&mut kchan, bob_keypair(), &xs2, rows, &p2, &ctx(12)).unwrap()
        });
        let masks = dot_many_peer(
            &mut pchan,
            &bob_keypair().public,
            ys_rows,
            mask_bound,
            &packing,
            &ctx(13),
        )
        .unwrap();
        (keyholder.join().unwrap(), masks)
    }

    #[test]
    fn dot_product_identity() {
        // One row: the single dot product u = Σ x_i·y_i + v.
        let xs: Vec<BigInt> = [2i64, -3, 4].iter().map(|&v| bi(v)).collect();
        let ys: Vec<BigInt> = [10i64, 1, -2].iter().map(|&v| bi(v)).collect();
        let (us, masks) = run_dot_many(&xs, &[ys], &BigUint::from_u64(1 << 20));
        assert_eq!(&us[0] - &masks[0], bi(20 - 3 - 8));
    }

    #[test]
    fn dot_arity_mismatch_is_protocol_error() {
        let (mut kchan, mut pchan) = duplex();
        let packing = test_packing(1 << 12);
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            // Keyholder sends 2 ciphertexts; the peer's row has 3.
            let _ = dot_many_keyholder(&mut kchan, bob_keypair(), &[bi(1), bi(2)], 1, &p2, &ctx(8));
        });
        let err = dot_many_peer(
            &mut pchan,
            &bob_keypair().public,
            &[vec![bi(1), bi(2), bi(3)]],
            &BigUint::from_u64(10),
            &packing,
            &ctx(9),
        )
        .unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
        drop(pchan);
        let _ = keyholder.join();
    }

    fn distance_rows(a: [i64; 2], bobs: &[[i64; 2]]) -> (Vec<BigInt>, Vec<Vec<BigInt>>) {
        // The §5 usage: Alice's vector (ΣA², -2A_1, -2A_2, 1) against Bob's
        // rows (1, B_1, B_2, ΣB²) yields dist²(A, B_j) + v_j.
        let a_norm = a.iter().map(|x| x * x).sum::<i64>();
        let xs: Vec<BigInt> = [a_norm, -2 * a[0], -2 * a[1], 1]
            .iter()
            .map(|&v| bi(v))
            .collect();
        let ys_rows: Vec<Vec<BigInt>> = bobs
            .iter()
            .map(|b| {
                let b_norm = b.iter().map(|x| x * x).sum::<i64>();
                vec![bi(1), bi(b[0]), bi(b[1]), bi(b_norm)]
            })
            .collect();
        (xs, ys_rows)
    }

    #[test]
    fn dot_many_computes_all_squared_distances() {
        let (xs, ys_rows) = distance_rows([3, 4], &[[0, 0], [3, 0], [6, 8]]);
        let (us, masks) = run_dot_many(&xs, &ys_rows, &BigUint::from_u64(1 << 16));
        let expect = [25i64, 16, 25]; // dist²((3,4), ·)
        for j in 0..3 {
            assert_eq!(&us[j] - &masks[j], bi(expect[j]), "point {j}");
        }
    }

    #[test]
    fn dot_reply_ships_ceil_rows_over_capacity_words() {
        // Five rows, answered to a hand-driven keyholder so the reply words
        // can be counted; the shares are the same under every layout
        // because row j's mask is keyed by j alone.
        let kp = bob_keypair();
        let (xs, ys_rows) = distance_rows([3, 4], &[[0, 0], [3, 0], [6, 8], [1, 2], [5, 5]]);
        let mask_bound = BigUint::from_u64(1 << 16);
        let mut r = rng(14);
        let cts: Vec<BigUint> = xs
            .iter()
            .map(|x| {
                kp.public
                    .encrypt_signed(x, &mut r)
                    .unwrap()
                    .as_biguint()
                    .clone()
            })
            .collect();
        let mut shares = Vec::new();
        // Offset must cover dist² + mask: dist² ≤ 200 here, mask ≤ 2^16.
        for packing in packings((1 << 16) + 200) {
            let (mut kchan, mut pchan) = duplex();
            kchan.send(&cts).unwrap();
            let masks = dot_many_peer(
                &mut pchan,
                &kp.public,
                &ys_rows,
                &mask_bound,
                &packing,
                &ctx(15),
            )
            .unwrap();
            let words: Vec<BigUint> = kchan.recv().unwrap();
            assert_eq!(words.len(), 5usize.div_ceil(packing.layout.capacity()));
            let us = packing.unpack_signed(kp, &words, 5).unwrap();
            let expect = [25i64, 16, 25, 8, 5]; // dist²((3,4), ·)
            for j in 0..5 {
                assert_eq!(&us[j] - &masks[j], bi(expect[j]), "point {j}");
            }
            shares.push((us, masks));
        }
        assert!(shares.windows(2).all(|w| w[0] == w[1]));
    }

    /// A peer facing one hand-injected single-ciphertext group.
    fn peer_against(ct: BigUint, mask: i64, packing: &ResponsePacking) -> SmcError {
        let (mut kchan, mut pchan) = duplex();
        kchan.send_batch(&[vec![ct]]).unwrap();
        mul_batches_peer(
            &mut pchan,
            &bob_keypair().public,
            &[vec![bi(1)]],
            |_| vec![bi(mask)],
            |g| ctx(9).at(g as u64),
            packing,
        )
        .unwrap_err()
    }

    #[test]
    fn packed_mask_below_offset_is_protocol_error() {
        // offset 4 cannot absorb a mask of magnitude up to 1000.
        let packing = ResponsePacking {
            layout: SlotLayout::new(bob_keypair().public.bits(), 24).unwrap(),
            offset: BigUint::from_u64(4),
        };
        let ct = bob_keypair()
            .public
            .encrypt_signed(&bi(1), &mut rng(7))
            .unwrap()
            .as_biguint()
            .clone();
        let err = peer_against(ct, -1000, &packing);
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    #[test]
    fn zero_sum_masks_sum_to_zero() {
        let mut r = rng(10);
        for count in [1usize, 2, 3, 8, 33] {
            let masks = zero_sum_masks(&mut r, count, &BigUint::from_u64(1 << 16));
            assert_eq!(masks.len(), count);
            let sum = masks.iter().fold(BigInt::zero(), |acc, m| &acc + m);
            assert!(sum.is_zero(), "count = {count}");
        }
        assert!(zero_sum_masks(&mut r, 0, &BigUint::from_u64(5)).is_empty());
    }

    #[test]
    fn dot_product_bound_is_safe() {
        let bound = dot_product_bound(3, 100, 50, &BigUint::from_u64(7));
        // 3 * 100*50 + 7
        assert_eq!(bound, BigUint::from_u64(15_007));
    }

    #[test]
    fn peer_rejects_invalid_ciphertext() {
        // A hand-injected invalid "ciphertext" (zero).
        let err = peer_against(BigUint::zero(), 0, &test_packing(1 << 12));
        assert!(matches!(err, SmcError::Crypto(_)));
    }
}
