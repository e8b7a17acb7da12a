//! Additive secret sharing over `Z_2^64` — the field-element MPC backend.
//!
//! Every hot number the Paillier backend ships is a 512–2048-bit
//! ciphertext; this module replaces them with 8-byte ring elements. It
//! implements the three SMC workhorses over additive shares in the ring
//! `Z_2^64` (wrapping `u64` arithmetic):
//!
//! * [`sharing_fold_keyholder_batch`] / peer — Beaver-triple inner-product
//!   folds (the `mul_batches` substitute): the keyholder holds `x`, the
//!   peer holds `y`, the keyholder learns `⟨x, y⟩` at the cost of **one
//!   element exchange per group** instead of one ciphertext per element,
//! * [`sharing_dot_querier`] / [`sharing_dot_responder`] — the one-round
//!   matrix-triple dot product (cf. the CHIKP/SecureML exemplars in
//!   SNIPPETS.md): one masked query vector `D = x − α` amortizes over
//!   every responder row, so a whole neighborhood's squared distances
//!   cost one exchange,
//! * [`sharing_compare_batch_alice`] / bob and the share-compare variants —
//!   comparison by masked opening of the share difference, with the real
//!   shared-bit-decomposition cost modeled in the [`SharingLedger`].
//!
//! # Field choice
//!
//! The ring `Z_2^64` rather than a prime field: the Beaver and dot-product
//! identities use only ring operations (no inversions), wrapping `u64`
//! arithmetic is free on hardware, and the signed embedding
//! `i64 → u64` ([`Fe::embed`] / [`Fe::lift`]) is exact for all inputs —
//! sums and differences telescope mod `2^64`, so share arithmetic never
//! overflows even where the plaintext `i64` computation would. All
//! protocol values in this workspace are bounded well inside `±2^62`
//! (coordinates, squared distances, and masks are validated or clamped),
//! so the centered lift of any opened value is exact.
//!
//! # Correlated randomness: the emulated dealer
//!
//! Beaver triples and opening masks come from a [`DealerTape`]: at session
//! establishment both parties exchange one `u64` contribution and XOR them
//! into a shared tape seed. Every correlation is then *derived*, not
//! shipped — `ctx.rekey(tape_seed)` re-bases the caller's keyed-randomness
//! path ([`crate::context::ProtocolContext`], PR 4) onto the shared seed,
//! so both parties at the same protocol position derive identical
//! correlations in any execution order.
//!
//! This is the *fake-offline* benchmarking idiom (MP-SPDZ's insecure
//! preprocessing): the online transcript — every byte, message, and round
//! this backend puts on the wire — is exactly what a real
//! trusted-dealer-model execution ships, while the offline phase that
//! would normally deliver the correlations (via OT or HE) is emulated
//! from the shared seed and therefore **not private**. The substitution
//! is the same measurement discipline as
//! [`crate::compare::Comparator::Ideal`] (DESIGN.md §3): costs are
//! faithful and ledgered, the privacy argument defers to the standard
//! protocol whose correlations the [`SharingLedger`] counts. Likewise
//! `share_less_than` opens the masked share difference instead of running
//! shared-bit decomposition; the ledger records the bit triples and bytes
//! the real comparison would consume (see [`SharingLedger::record_compare`]).

use crate::compare::{CmpOp, ComparisonDomain};
use crate::context::ProtocolContext;
use crate::error::SmcError;
use ppds_observe::trace;
use ppds_transport::{Channel, Reader, TransportError, WireDecode, WireEncode};
use rand::{Rng, RngCore};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Version tag of the sharing-backend discipline, stamped into benchmark
/// artifacts so a recorded run names the share representation it used.
pub const SHARING_DISCIPLINE: &str = "additive-z64-v1";

/// Largest mask magnitude the sharing backend will draw, regardless of the
/// configured Paillier mask bound: keeps every driver-side `i64` sum
/// (`eps² + share`, share differences) comfortably inside `±2^62`.
pub const MAX_SHARING_MASK: u64 = 1 << 60;

// ---------------------------------------------------------------------------
// Field elements
// ---------------------------------------------------------------------------

/// One element of `Z_2^64`. All arithmetic wraps mod `2^64`; the signed
/// embedding is the bijection `i64 ↔ u64` by bit reinterpretation, so
/// [`Fe::lift`]`(`[`Fe::embed`]`(v)) == v` for every `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fe(pub u64);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe(0);

    /// Embeds a signed value into the ring (two's-complement
    /// reinterpretation).
    #[inline]
    pub fn embed(v: i64) -> Fe {
        Fe(v as u64)
    }

    /// Centered lift back to a signed value: exact whenever the true value
    /// lies in `[-2^63, 2^63)`, which every protocol value here does.
    #[inline]
    pub fn lift(self) -> i64 {
        self.0 as i64
    }

    /// A uniform ring element.
    #[inline]
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Fe {
        Fe(rng.next_u64())
    }
}

impl Add for Fe {
    type Output = Fe;
    #[inline]
    fn add(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Fe {
    #[inline]
    fn add_assign(&mut self, rhs: Fe) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for Fe {
    type Output = Fe;
    #[inline]
    fn sub(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_sub(rhs.0))
    }
}

impl Mul for Fe {
    type Output = Fe;
    #[inline]
    fn mul(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_mul(rhs.0))
    }
}

impl Neg for Fe {
    type Output = Fe;
    #[inline]
    fn neg(self) -> Fe {
        Fe(self.0.wrapping_neg())
    }
}

impl Sum for Fe {
    fn sum<I: Iterator<Item = Fe>>(iter: I) -> Fe {
        iter.fold(Fe::ZERO, |acc, v| acc + v)
    }
}

impl WireEncode for Fe {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for Fe {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok(Fe(u64::decode(reader)?))
    }
}

/// Ring inner product.
#[inline]
pub fn fe_dot(a: &[Fe], b: &[Fe]) -> Fe {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn draw_fes<R: RngCore>(rng: &mut R, n: usize) -> Vec<Fe> {
    (0..n).map(|_| Fe::random(rng)).collect()
}

/// Uniform signed mask in `[-bound, bound]` from a keyed stream — the
/// sharing analogue of `multiplication::sample_mask` for `i64`-sized
/// bounds. Callers clamp `bound` to [`MAX_SHARING_MASK`] first.
pub fn sample_mask_i64<R: Rng>(mut rng: R, bound: u64) -> i64 {
    if bound == 0 {
        return 0;
    }
    let b = bound.min(MAX_SHARING_MASK) as i64;
    rng.random_range(-b..=b)
}

// ---------------------------------------------------------------------------
// The emulated dealer
// ---------------------------------------------------------------------------

/// The shared correlated-randomness tape: a seed both parties combine at
/// session establishment, from which every Beaver triple and opening mask
/// is derived (see the module docs' fake-offline discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DealerTape {
    seed: u64,
}

impl DealerTape {
    /// One party's seed contribution, drawn from its session randomness.
    /// Both parties exchange these during the handshake and combine them
    /// with [`DealerTape::from_contributions`].
    pub fn contribution(ctx: &ProtocolContext) -> u64 {
        ctx.narrow("dealer").rng().next_u64()
    }

    /// Combines the two contributions; XOR, so the result is independent
    /// of which side contributed which value.
    pub fn from_contributions(mine: u64, theirs: u64) -> DealerTape {
        DealerTape {
            seed: mine ^ theirs,
        }
    }

    /// A tape with an explicit seed (tests and benchmarks).
    pub fn from_seed(seed: u64) -> DealerTape {
        DealerTape { seed }
    }

    /// Re-bases a protocol scope onto the shared tape seed: both parties
    /// at the same `narrow`/`at` position derive identical streams.
    fn scope(&self, ctx: &ProtocolContext) -> ProtocolContext {
        ctx.rekey(self.seed).narrow("tape")
    }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Per-party account of the sharing backend's trust substitutions, the
/// companion of `YaoLedger`: what the emulated dealer handed out, what was
/// opened on the wire, and the modeled cost of the real bit-decomposition
/// comparisons the masked openings stand in for. Under the Paillier
/// backend every field stays zero, which is itself part of the audit — a
/// run's ledger says exactly which trust model produced it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharingLedger {
    /// Secure comparisons evaluated by masked opening.
    pub compares: u64,
    /// Scalar Beaver correlations consumed (one per vector element per
    /// row for matrix triples).
    pub triples: u64,
    /// Modeled bit triples the real shared-bit-decomposition comparisons
    /// would consume (`2ℓ − 2` per compare over an `ℓ`-bit domain).
    pub bit_triples: u64,
    /// Ring elements physically opened on the wire (both directions).
    pub opened_elements: u64,
    /// Modeled bytes a real offline phase would ship to deliver the
    /// consumed correlations (8 bytes per dealer-issued element, 16 per
    /// bit triple), plus the modeled online bytes of real comparisons.
    pub modeled_offline_bytes: u64,
}

impl SharingLedger {
    /// Accounts one masked-opening comparison over `domain`: the opening
    /// itself (one element each way, plus its zero-share) and the modeled
    /// real cost — `2ℓ − 2` bit triples and one masked open per bit for a
    /// comparison over an `ℓ`-bit domain (the standard post-Catrina–de
    /// Hoogh LT budget).
    pub fn record_compare(&mut self, domain: &ComparisonDomain) {
        let ell = u64::from(64 - domain.n0().leading_zeros());
        let bits = 2 * ell.max(1) - 2;
        self.compares += 1;
        self.bit_triples += bits;
        self.opened_elements += 2;
        // Dealer: one zero-share (2 elements) + the modeled bit triples.
        self.modeled_offline_bytes += 16 + 16 * bits;
    }

    /// Accounts one matrix-triple dot product: query length `m`, `rows`
    /// responder rows. Dealer issues `α` (m), the `B_j` rows (`rows·m`),
    /// and both halves of each `c_j` (`2·rows`); the online phase opens
    /// `D` (m) plus one `(E_j, s_j)` pair per row.
    pub fn record_dot(&mut self, m: usize, rows: usize) {
        let (m, rows) = (m as u64, rows as u64);
        self.triples += m * rows;
        self.opened_elements += m + rows * (m + 1);
        self.modeled_offline_bytes += 8 * (m + rows * m + 2 * rows);
    }

    /// Accounts one Beaver inner-product fold of vector length `m`
    /// (dealer: `α`, `β`, both `c` halves; online: `D`, `E`, `s`).
    pub fn record_fold(&mut self, m: usize) {
        let m = m as u64;
        self.triples += m;
        self.opened_elements += 2 * m + 1;
        self.modeled_offline_bytes += 8 * (2 * m + 2);
    }

    /// Folds another ledger into this one (session aggregation).
    pub fn absorb(&mut self, other: SharingLedger) {
        self.compares += other.compares;
        self.triples += other.triples;
        self.bit_triples += other.bit_triples;
        self.opened_elements += other.opened_elements;
        self.modeled_offline_bytes += other.modeled_offline_bytes;
    }
}

// ---------------------------------------------------------------------------
// Masked opening
// ---------------------------------------------------------------------------

/// Opens `value_a + value_b` per item, where Alice holds `values` and Bob
/// holds the other addends: each side ships its shares under tape-derived
/// zero-shares (`+ρ_i` here, `−ρ_i` on Bob's side, item `i` keyed
/// `rng_for(i)`). Alice sends first.
fn masked_open_batch_alice<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    values: &[Fe],
    ctx: &ProtocolContext,
) -> Result<Vec<Fe>, SmcError> {
    let scope = tape.scope(ctx).narrow("open");
    let mine: Vec<Fe> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| v + Fe::random(&mut scope.rng_for(i as u64)))
        .collect();
    chan.send_batch(&mine)?;
    let theirs: Vec<Fe> = chan.recv_batch()?;
    if theirs.len() != values.len() {
        return Err(SmcError::protocol(format!(
            "masked open: expected {} shares, got {}",
            values.len(),
            theirs.len()
        )));
    }
    Ok(mine.iter().zip(&theirs).map(|(&a, &b)| a + b).collect())
}

/// Bob's half of [`masked_open_batch_alice`]: receives first, sends second.
fn masked_open_batch_bob<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    values: &[Fe],
    ctx: &ProtocolContext,
) -> Result<Vec<Fe>, SmcError> {
    let scope = tape.scope(ctx).narrow("open");
    let mine: Vec<Fe> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| v - Fe::random(&mut scope.rng_for(i as u64)))
        .collect();
    let theirs: Vec<Fe> = chan.recv_batch()?;
    if theirs.len() != values.len() {
        return Err(SmcError::protocol(format!(
            "masked open: expected {} shares, got {}",
            values.len(),
            theirs.len()
        )));
    }
    chan.send_batch(&mine)?;
    Ok(mine.iter().zip(&theirs).map(|(&a, &b)| a + b).collect())
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn verdict(v: Fe, op: CmpOp) -> bool {
    match op {
        CmpOp::Lt => v.lift() < 0,
        CmpOp::Leq => v.lift() <= 0,
    }
}

/// Alice's side of a set of sharing-backend comparisons (one frame each way
/// for the whole set; a single comparison is the one-item batch); returns
/// `alice_value OP bob_value` per item. Item `i` consumes the tape at
/// `ctx`-index `i`. Works over the full 64-bit ring — `domain` only sizes
/// the modeled bit-decomposition cost in the ledger, unlike the Paillier
/// path which must encode into `[1, n0]`.
pub fn sharing_compare_batch_alice<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    values: &[i64],
    op: CmpOp,
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    for _ in values {
        acct.record_compare(domain);
    }
    let fes: Vec<Fe> = values.iter().map(|&v| Fe::embed(v)).collect();
    let opened = masked_open_batch_alice(tape, chan, &fes, ctx)?;
    span.end(|| chan.metrics());
    Ok(opened.into_iter().map(|v| verdict(v, op)).collect())
}

/// Bob's half of [`sharing_compare_batch_alice`].
pub fn sharing_compare_batch_bob<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    values: &[i64],
    op: CmpOp,
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if values.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    for _ in values {
        acct.record_compare(domain);
    }
    let fes: Vec<Fe> = values.iter().map(|&v| -Fe::embed(v)).collect();
    let opened = masked_open_batch_bob(tape, chan, &fes, ctx)?;
    span.end(|| chan.metrics());
    Ok(opened.into_iter().map(|v| verdict(v, op)).collect())
}

/// Share comparisons, sharing backend: per pair Alice holds `(u_a, u_b)`,
/// Bob holds `(v_a, v_b)`, shares of `dist_a = u_a − v_a` and
/// `dist_b = u_b − v_b`; both learn `dist_a < dist_b`. The share
/// differences are taken *in-field*, so they never overflow regardless of
/// mask width.
pub fn sharing_share_less_than_batch_alice<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    pairs: &[(i64, i64)],
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    for _ in pairs {
        acct.record_compare(domain);
    }
    let fes: Vec<Fe> = pairs
        .iter()
        .map(|&(a, b)| Fe::embed(a) - Fe::embed(b))
        .collect();
    let opened = masked_open_batch_alice(tape, chan, &fes, ctx)?;
    span.end(|| chan.metrics());
    Ok(opened.into_iter().map(|v| verdict(v, CmpOp::Lt)).collect())
}

/// Bob's half of [`sharing_share_less_than_batch_alice`].
pub fn sharing_share_less_than_batch_bob<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    pairs: &[(i64, i64)],
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("cmp_batch", || chan.metrics());
    for _ in pairs {
        acct.record_compare(domain);
    }
    let fes: Vec<Fe> = pairs
        .iter()
        .map(|&(a, b)| Fe::embed(b) - Fe::embed(a))
        .collect();
    let opened = masked_open_batch_bob(tape, chan, &fes, ctx)?;
    span.end(|| chan.metrics());
    Ok(opened.into_iter().map(|v| verdict(v, CmpOp::Lt)).collect())
}

// ---------------------------------------------------------------------------
// Beaver inner-product folds (the mul_batches substitute)
// ---------------------------------------------------------------------------

struct FoldTriple {
    alpha: Vec<Fe>,
    beta: Vec<Fe>,
    c1: Fe,
    c2: Fe,
}

fn fold_triple(tape: &DealerTape, ctx: &ProtocolContext, m: usize) -> FoldTriple {
    let t = tape.scope(ctx).narrow("fold");
    let alpha = draw_fes(&mut t.narrow("a").rng(), m);
    let beta = draw_fes(&mut t.narrow("b").rng(), m);
    let c1 = Fe::random(&mut t.narrow("c").rng());
    let c2 = fe_dot(&alpha, &beta) - c1;
    FoldTriple {
        alpha,
        beta,
        c1,
        c2,
    }
}

/// Keyholder side of the Beaver inner-product folds: holds one vector `xs`
/// per group and learns `⟨xs, ys⟩` exactly for each (the Paillier path's
/// per-element masks are zero-sum, so its folded result is the same exact
/// inner product — this leaks nothing the paper's Multiplication Protocol
/// composition doesn't). All groups' `D` vectors ship as one frame, all
/// replies return as one. Group `g` consumes the tape at `scopes(g)`.
pub fn sharing_fold_keyholder_batch<C: Channel, S: Fn(usize) -> ProtocolContext>(
    tape: &DealerTape,
    chan: &mut C,
    groups: &[Vec<Fe>],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError> {
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let trips: Vec<FoldTriple> = groups
        .iter()
        .enumerate()
        .map(|(g, xs)| fold_triple(tape, &scopes(g), xs.len()))
        .collect();
    let ds: Vec<Vec<Fe>> = groups
        .iter()
        .zip(&trips)
        .map(|(xs, t)| xs.iter().zip(&t.alpha).map(|(&x, &a)| x - a).collect())
        .collect();
    chan.send_batch(&ds)?;
    let replies: Vec<(Vec<Fe>, Fe)> = chan.recv_batch()?;
    if replies.len() != groups.len() {
        return Err(SmcError::protocol(format!(
            "fold batch: expected {} replies, got {}",
            groups.len(),
            replies.len()
        )));
    }
    let mut out = Vec::with_capacity(groups.len());
    for ((xs, trip), (e, s)) in groups.iter().zip(&trips).zip(&replies) {
        if e.len() != xs.len() {
            return Err(SmcError::protocol(format!(
                "fold batch: expected {} reply elements, got {}",
                xs.len(),
                e.len()
            )));
        }
        acct.record_fold(xs.len());
        out.push(fe_dot(xs, e) + trip.c1 + *s);
    }
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer half of [`sharing_fold_keyholder_batch`]: holds `ys` per group and
/// contributes no net mask (the fold's masks cancel by construction on
/// both backends).
pub fn sharing_fold_peer_batch<C: Channel, S: Fn(usize) -> ProtocolContext>(
    tape: &DealerTape,
    chan: &mut C,
    groups: &[Vec<Fe>],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<(), SmcError> {
    if groups.is_empty() {
        return Ok(());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let trips: Vec<FoldTriple> = groups
        .iter()
        .enumerate()
        .map(|(g, ys)| fold_triple(tape, &scopes(g), ys.len()))
        .collect();
    let ds: Vec<Vec<Fe>> = chan.recv_batch()?;
    if ds.len() != groups.len() {
        return Err(SmcError::protocol(format!(
            "fold batch: expected {} queries, got {}",
            groups.len(),
            ds.len()
        )));
    }
    let mut replies = Vec::with_capacity(groups.len());
    for ((ys, trip), d) in groups.iter().zip(&trips).zip(&ds) {
        if d.len() != ys.len() {
            return Err(SmcError::protocol(format!(
                "fold batch: expected {} query elements, got {}",
                ys.len(),
                d.len()
            )));
        }
        let e: Vec<Fe> = ys.iter().zip(&trip.beta).map(|(&y, &b)| y - b).collect();
        let s = fe_dot(d, &trip.beta) + trip.c2;
        acct.record_fold(ys.len());
        replies.push((e, s));
    }
    chan.send_batch(&replies)?;
    span.end(|| chan.metrics());
    Ok(())
}

// ---------------------------------------------------------------------------
// One-round matrix-triple dot product (the dot_many substitute)
// ---------------------------------------------------------------------------

fn dot_alpha(tape: &DealerTape, ctx: &ProtocolContext, m: usize) -> Vec<Fe> {
    draw_fes(&mut tape.scope(ctx).narrow("dot").narrow("a").rng(), m)
}

fn dot_row(tape: &DealerTape, ctx: &ProtocolContext, j: u64, m: usize) -> Vec<Fe> {
    draw_fes(&mut tape.scope(ctx).narrow("dot").narrow("b").rng_for(j), m)
}

fn dot_c1(tape: &DealerTape, ctx: &ProtocolContext, j: u64) -> Fe {
    Fe::random(&mut tape.scope(ctx).narrow("dot").narrow("c").rng_for(j))
}

/// Querier side of the one-round matrix-triple dot product: holds the
/// query vector `xs`, learns `u_j = ⟨xs, y_j⟩ + v_j` for every responder
/// row `y_j` (mask `v_j` is the responder's share). One masked query
/// `D = x − α` amortizes over all rows — two messages total, every element
/// 8 bytes.
pub fn sharing_dot_querier<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[Fe],
    expected_rows: usize,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError> {
    let span = trace::span("dot_many", || chan.metrics());
    let m = xs.len();
    let alpha = dot_alpha(tape, ctx, m);
    let d: Vec<Fe> = xs.iter().zip(&alpha).map(|(&x, &a)| x - a).collect();
    chan.send(&d)?;
    let replies: Vec<(Vec<Fe>, Fe)> = chan.recv()?;
    if replies.len() != expected_rows {
        return Err(SmcError::protocol(format!(
            "dot: expected {expected_rows} rows, got {}",
            replies.len()
        )));
    }
    let mut out = Vec::with_capacity(replies.len());
    for (j, (e, s)) in replies.iter().enumerate() {
        if e.len() != m {
            return Err(SmcError::protocol(format!(
                "dot: row {j} has {} elements, expected {m}",
                e.len()
            )));
        }
        out.push(fe_dot(xs, e) + dot_c1(tape, ctx, j as u64) + *s);
    }
    acct.record_dot(m, replies.len());
    span.end(|| chan.metrics());
    Ok(out)
}

/// Responder side of [`sharing_dot_querier`]: holds the rows `y_j` and the
/// masks `v_j` (its output shares; the caller draws them from its private
/// session randomness).
pub fn sharing_dot_responder<C: Channel>(
    tape: &DealerTape,
    chan: &mut C,
    rows: &[Vec<Fe>],
    masks: &[Fe],
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<(), SmcError> {
    if rows.len() != masks.len() {
        return Err(SmcError::protocol("dot: rows/masks length mismatch"));
    }
    let span = trace::span("dot_many", || chan.metrics());
    let d: Vec<Fe> = chan.recv()?;
    let m = d.len();
    let alpha = dot_alpha(tape, ctx, m);
    let mut replies = Vec::with_capacity(rows.len());
    for (j, (row, &mask)) in rows.iter().zip(masks).enumerate() {
        if row.len() != m {
            return Err(SmcError::protocol(format!(
                "dot: row {j} has {} elements, query has {m}",
                row.len()
            )));
        }
        let b = dot_row(tape, ctx, j as u64, m);
        let e: Vec<Fe> = row.iter().zip(&b).map(|(&y, &bb)| y - bb).collect();
        let c2 = fe_dot(&alpha, &b) - dot_c1(tape, ctx, j as u64);
        let s = fe_dot(&d, &b) + c2 + mask;
        replies.push((e, s));
    }
    chan.send(&replies)?;
    acct.record_dot(m, rows.len());
    span.end(|| chan.metrics());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::ctx;
    use ppds_transport::duplex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embed_lift_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(Fe::embed(v).lift(), v);
        }
    }

    #[test]
    fn field_arithmetic_telescopes() {
        // In-field differences of embedded values are exact even when the
        // i64 difference would overflow.
        let a = Fe::embed(i64::MAX - 3);
        let b = Fe::embed(-10);
        assert_eq!((a - b) - a + b, Fe::ZERO);
        let mut acc = Fe::ZERO;
        acc += Fe::embed(-7);
        assert_eq!((-acc).lift(), 7);
    }

    #[test]
    fn fe_wire_roundtrip() {
        for v in [Fe(0), Fe(u64::MAX), Fe::embed(-5)] {
            let bytes = v.encode_to_vec();
            assert_eq!(bytes.len(), 8);
            assert_eq!(Fe::decode_exact(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn tape_contributions_commute() {
        let a = DealerTape::from_contributions(3, 9);
        let b = DealerTape::from_contributions(9, 3);
        assert_eq!(a, b);
        // Both parties derive identical correlations at equal positions.
        let ctx_a = ctx(111).narrow("mul").at(4);
        let ctx_b = ctx(222).narrow("mul").at(4);
        assert_eq!(dot_alpha(&a, &ctx_a, 5), dot_alpha(&b, &ctx_b, 5));
        assert_eq!(fold_triple(&a, &ctx_a, 3).c1, fold_triple(&b, &ctx_b, 3).c1);
    }

    #[test]
    fn sample_mask_respects_bound_and_clamp() {
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let v = sample_mask_i64(&mut r, 17);
            assert!((-17..=17).contains(&v));
        }
        assert_eq!(sample_mask_i64(&mut r, 0), 0);
        let wide = sample_mask_i64(&mut r, u64::MAX);
        assert!(wide.unsigned_abs() <= MAX_SHARING_MASK);
    }

    /// Runs one comparison set on two threads; returns both views and Bob's
    /// ledger.
    fn compare_sets(
        avals: Vec<i64>,
        bvals: Vec<i64>,
        op: CmpOp,
        seed: u64,
    ) -> (Vec<bool>, Vec<bool>, SharingLedger) {
        let tape = DealerTape::from_seed(seed);
        let domain = ComparisonDomain::symmetric(1 << 20);
        let (mut achan, mut bchan) = duplex();
        let alice = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            sharing_compare_batch_alice(&tape, &mut achan, &avals, op, &domain, &ctx(1), &mut acct)
                .unwrap()
        });
        let mut acct = SharingLedger::default();
        let bv =
            sharing_compare_batch_bob(&tape, &mut bchan, &bvals, op, &domain, &ctx(2), &mut acct)
                .unwrap();
        (alice.join().unwrap(), bv, acct)
    }

    #[test]
    fn compare_matches_plaintext() {
        for (a, b) in [(3i64, 4i64), (4, 3), (5, 5), (-9, 2), (2, -9), (-4, -4)] {
            for op in [CmpOp::Lt, CmpOp::Leq] {
                let expect = match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Leq => a <= b,
                };
                let (av, bv, acct) = compare_sets(vec![a], vec![b], op, 42);
                assert_eq!(av, vec![expect], "{a} {op:?} {b}");
                assert_eq!(bv, vec![expect]);
                assert_eq!(acct.compares, 1);
                assert!(acct.bit_triples > 0);
            }
        }
    }

    #[test]
    fn compare_set_matches_plaintext_in_one_exchange() {
        let avals = vec![1i64, -5, 7, 0, 3];
        let bvals = vec![2i64, -5, -7, 1, 3];
        let (av, bv, acct) = compare_sets(avals.clone(), bvals.clone(), CmpOp::Leq, 7);
        let expect: Vec<bool> = avals.iter().zip(&bvals).map(|(&a, &b)| a <= b).collect();
        assert_eq!(av, expect);
        assert_eq!(bv, expect);
        assert_eq!(acct.compares, 5);
    }

    #[test]
    fn share_less_than_matches_plaintext() {
        // dist_a = u_a − v_a, dist_b = u_b − v_b; shares picked so the
        // i64 share differences would be large but in-field stays exact.
        let cases = [
            ((10i64, 3i64), (4i64, 1i64)),          // dist 6 vs 2 → false
            ((1, 9), (5, 2)),                       // -4 vs 7 → true
            ((i64::MAX - 2, 5), (i64::MAX - 4, 1)), // 2 vs 4 (mod shares) → true
        ];
        let alice_pairs: Vec<(i64, i64)> = cases
            .iter()
            .map(|&((u_a, _), (u_b, _))| (u_a, u_b))
            .collect();
        let bob_pairs: Vec<(i64, i64)> = cases
            .iter()
            .map(|&((_, v_a), (_, v_b))| (v_a, v_b))
            .collect();
        let tape = DealerTape::from_seed(99);
        let domain = ComparisonDomain::symmetric(1 << 30);
        let (mut achan, mut bchan) = duplex();
        let alice = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            sharing_share_less_than_batch_alice(
                &tape,
                &mut achan,
                &alice_pairs,
                &domain,
                &ctx(3),
                &mut acct,
            )
            .unwrap()
        });
        let mut acct = SharingLedger::default();
        let bv = sharing_share_less_than_batch_bob(
            &tape,
            &mut bchan,
            &bob_pairs,
            &domain,
            &ctx(4),
            &mut acct,
        )
        .unwrap();
        let expect: Vec<bool> = cases
            .iter()
            .map(|&((u_a, v_a), (u_b, v_b))| {
                let dist_a = Fe::embed(u_a) - Fe::embed(v_a);
                let dist_b = Fe::embed(u_b) - Fe::embed(v_b);
                (dist_a - dist_b).lift() < 0
            })
            .collect();
        assert_eq!(alice.join().unwrap(), expect);
        assert_eq!(bv, expect);
    }

    #[test]
    fn folds_compute_exact_inner_products() {
        let groups_x = vec![
            vec![3i64, -1, 0, 12, 7],
            vec![1, 2],
            vec![-3, 4, 5],
            vec![7],
        ];
        let groups_y = vec![
            vec![5i64, 5, -9, 2, -3],
            vec![9, -2],
            vec![1, 1, 1],
            vec![-6],
        ];
        let tape = DealerTape::from_seed(21);
        let base = ctx(8).narrow("mul");
        let embed = |groups: &[Vec<i64>]| -> Vec<Vec<Fe>> {
            groups
                .iter()
                .map(|g| g.iter().map(|&v| Fe::embed(v)).collect())
                .collect()
        };
        let (gx, gy) = (embed(&groups_x), embed(&groups_y));
        let (mut kchan, mut pchan) = duplex();
        let key = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let us = sharing_fold_keyholder_batch(
                &tape,
                &mut kchan,
                &gx,
                |g| ctx(8).narrow("mul").at(g as u64),
                &mut acct,
            )
            .unwrap();
            (us, acct)
        });
        let mut acct = SharingLedger::default();
        sharing_fold_peer_batch(&tape, &mut pchan, &gy, |g| base.at(g as u64), &mut acct).unwrap();
        let (us, kacct) = key.join().unwrap();
        for ((u, xs), ys) in us.iter().zip(&groups_x).zip(&groups_y) {
            let expect: i64 = xs.iter().zip(ys).map(|(&x, &y)| x * y).sum();
            assert_eq!(u.lift(), expect);
        }
        // 11 elements: one triple each; 2m + 1 opened elements per group.
        assert_eq!(kacct.triples, 11);
        assert_eq!(acct.opened_elements, 2 * 11 + 4);
    }

    #[test]
    fn dot_shares_reconstruct_inner_products() {
        let xs = [4i64, -2, 1, 0];
        let rows = vec![vec![1i64, 2, 3, 4], vec![-5, 0, 0, 9], vec![7, 7, 7, 7]];
        let masks = vec![100i64, -40, 3];
        let tape = DealerTape::from_seed(31);
        let xfes: Vec<Fe> = xs.iter().map(|&v| Fe::embed(v)).collect();
        let (mut qchan, mut rchan) = duplex();
        let n = rows.len();
        let querier = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let us = sharing_dot_querier(
                &tape,
                &mut qchan,
                &xfes,
                n,
                &ctx(9).narrow("dot"),
                &mut acct,
            )
            .unwrap();
            (us, acct)
        });
        let rowfes: Vec<Vec<Fe>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Fe::embed(v)).collect())
            .collect();
        let maskfes: Vec<Fe> = masks.iter().map(|&v| Fe::embed(v)).collect();
        let mut acct = SharingLedger::default();
        sharing_dot_responder(
            &tape,
            &mut rchan,
            &rowfes,
            &maskfes,
            &ctx(10).narrow("dot"),
            &mut acct,
        )
        .unwrap();
        let (us, qacct) = querier.join().unwrap();
        for ((u, row), &mask) in us.iter().zip(&rows).zip(&masks) {
            let ip: i64 = xs.iter().zip(row).map(|(&x, &y)| x * y).sum();
            // u − v = ⟨x, y⟩: the two sides hold additive shares.
            assert_eq!((*u - Fe::embed(mask)).lift(), ip);
        }
        assert_eq!(qacct.triples, (xs.len() * rows.len()) as u64);
        assert!(qacct.modeled_offline_bytes > 0);
    }

    #[test]
    fn ledger_absorb_sums_fields() {
        let mut a = SharingLedger::default();
        a.record_compare(&ComparisonDomain::symmetric(100));
        let mut b = SharingLedger::default();
        b.record_dot(3, 4);
        b.record_fold(5);
        let mut total = a;
        total.absorb(b);
        assert_eq!(total.compares, 1);
        assert_eq!(total.triples, 12 + 5);
        assert_eq!(total.opened_elements, a.opened_elements + b.opened_elements);
        assert_eq!(
            total.modeled_offline_bytes,
            a.modeled_offline_bytes + b.modeled_offline_bytes
        );
    }
}
