//! Property-based tests for the SMC primitives: the faithful Yao protocol
//! and both comparison backends must implement exact integer comparison for
//! arbitrary in-domain inputs, and the multiplication protocols must
//! satisfy their masking identities.

use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::{Keypair, SlotLayout};
use ppds_smc::compare::{
    compare_batch_alice, compare_batch_bob, CmpOp, Comparator, ComparisonDomain,
};
use ppds_smc::millionaires::{yao_alice, yao_bob, YaoConfig};
use ppds_smc::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
    ResponsePacking,
};
use ppds_smc::ProtocolContext;
use ppds_transport::duplex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(128, &mut StdRng::seed_from_u64(7)))
}

/// Response slots for signed values of magnitude at most `offset`.
fn packing(offset: u64) -> ResponsePacking {
    let bits = BigUint::from_u64(2 * offset).bit_length() + 1;
    ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), bits).unwrap(),
        offset: BigUint::from_u64(offset),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn yao_decides_lt_exactly(
        n0 in 2u64..40,
        i_frac in 0.0f64..1.0,
        j_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let i = 1 + (i_frac * (n0 - 1) as f64) as u64;
        let j = 1 + (j_frac * (n0 - 1) as f64) as u64;
        let config = YaoConfig { n0 };
        let (mut achan, mut bchan) = duplex();
        let alice = std::thread::spawn(move || {
            yao_alice(&mut achan, keypair(), i, &config, &ProtocolContext::new(seed)).unwrap()
        });
        let bob_view = yao_bob(
            &mut bchan,
            &keypair().public,
            j,
            &config,
            &ProtocolContext::new(seed.wrapping_add(1)),
        )
        .unwrap();
        let alice_view = alice.join().unwrap();
        prop_assert_eq!(alice_view, i < j);
        prop_assert_eq!(bob_view, i < j);
    }

    #[test]
    fn comparators_agree_on_signed_domains(
        lo in -60i64..0,
        span in 1i64..60,
        a_off in 0i64..60,
        b_off in 0i64..60,
        leq in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let hi = lo + span;
        let domain = ComparisonDomain::new(lo, hi);
        let a = lo + a_off % (span + 1);
        let b = lo + b_off % (span + 1);
        let op = if leq { CmpOp::Leq } else { CmpOp::Lt };
        let expect = if leq { a <= b } else { a < b };
        for comparator in [Comparator::Yao, Comparator::Ideal] {
            let (mut achan, mut bchan) = duplex();
            let alice = std::thread::spawn(move || {
                let actx = ProtocolContext::new(seed);
                compare_batch_alice(comparator, &mut achan, keypair(), &[a], op, &domain, &actx)
                    .unwrap()
            });
            let bctx = ProtocolContext::new(seed.wrapping_add(1));
            let bob_view = compare_batch_bob(
                comparator,
                &mut bchan,
                &keypair().public,
                &[b],
                op,
                &domain,
                &bctx,
            )
            .unwrap();
            let alice_view = alice.join().unwrap();
            prop_assert_eq!(alice_view, vec![expect], "{:?} {} vs {}", comparator, a, b);
            prop_assert_eq!(bob_view, vec![expect]);
        }
    }

    #[test]
    fn multiplication_masks_cancel(
        xs in proptest::collection::vec(-100i64..100, 1..6),
        ys_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut r = StdRng::seed_from_u64(ys_seed);
        use rand::Rng as _;
        let ys: Vec<i64> = xs.iter().map(|_| r.random_range(-100..100)).collect();
        let xs_big: Vec<BigInt> = xs.iter().map(|&v| BigInt::from_i64(v)).collect();
        let ys_big: Vec<BigInt> = ys.iter().map(|&v| BigInt::from_i64(v)).collect();

        let mut mask_rng = StdRng::seed_from_u64(seed);
        let masks = zero_sum_masks(&mut mask_rng, xs.len(), &BigUint::from_u64(1 << 20));

        // The closing zero-sum mask can reach (len − 1)·2^20.
        let packing = packing(((xs.len() as u64) << 20) + (1 << 14));
        let (mut kchan, mut pchan) = duplex();
        let xs2 = xs_big.clone();
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            let kctx = ProtocolContext::new(seed.wrapping_add(1));
            mul_batches_keyholder(&mut kchan, keypair(), &[xs2], |_| kctx, &p2).unwrap()
        });
        let pctx = ProtocolContext::new(seed.wrapping_add(2));
        mul_batches_peer(
            &mut pchan,
            &keypair().public,
            &[ys_big],
            |_| masks.clone(),
            |_| pctx,
            &packing,
        )
        .unwrap();
        let ws = keyholder.join().unwrap().remove(0);

        // Σ w_i = Σ x_i·y_i exactly (zero-sum masks cancel).
        let sum = ws.iter().fold(BigInt::zero(), |acc, w| &acc + w);
        let expect: i64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        prop_assert_eq!(sum, BigInt::from_i64(expect));
    }

    #[test]
    fn dot_product_identity_holds(
        xs in proptest::collection::vec(-50i64..50, 1..5),
        ys_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut r = StdRng::seed_from_u64(ys_seed);
        use rand::Rng as _;
        let ys: Vec<i64> = xs.iter().map(|_| r.random_range(-50..50)).collect();
        let xs_big: Vec<BigInt> = xs.iter().map(|&v| BigInt::from_i64(v)).collect();
        let ys_big: Vec<BigInt> = ys.iter().map(|&v| BigInt::from_i64(v)).collect();

        let packing = packing((1 << 24) + (1 << 14));
        let (mut kchan, mut pchan) = duplex();
        let xs2 = xs_big.clone();
        let p2 = packing.clone();
        let keyholder = std::thread::spawn(move || {
            dot_many_keyholder(&mut kchan, keypair(), &xs2, 1, &p2, &ProtocolContext::new(seed))
                .unwrap()
        });
        let v = dot_many_peer(
            &mut pchan,
            &keypair().public,
            &[ys_big],
            &BigUint::from_u64(1 << 24),
            &packing,
            &ProtocolContext::new(seed.wrapping_add(1)),
        )
        .unwrap();
        let (u, v) = (&keyholder.join().unwrap()[0], &v[0]);
        let expect: i64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        prop_assert_eq!(u - v, BigInt::from_i64(expect));
    }
}
