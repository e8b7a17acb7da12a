//! Session-level construction of the pluggable SMC backend.
//!
//! Every driver obtains its [`AnyBackend`] here from the negotiated
//! [`Session`] and the public [`ProtocolConfig`]: the Paillier variant
//! borrows the session keys and carries the dimension-dependent response
//! packings and mask bounds derived from the public config, the sharing
//! variant carries the handshake-agreed
//! [`DealerTape`](ppds_smc::DealerTape) and the same dot mask bound
//! clamped to the ring-safe range. See DESIGN.md §14.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::session::{ModeContext, Session};
use ppds_bigint::BigUint;
use ppds_paillier::{Keypair, PublicKey};
use ppds_smc::backend::clamp_sharing_bound;
use ppds_smc::{AnyBackend, BackendKind, DealerTape, PaillierBackend, SharingBackend};

/// The homomorphic backend: comparator, response packings, and mask
/// bounds all derived from the public config and the data dimension. A
/// key too small for one response slot is a typed config error (which
/// [`ProtocolConfig::validate`] reports before any frame is sent).
pub(crate) fn paillier_backend<'a>(
    cfg: &ProtocolConfig,
    my_keypair: &'a Keypair,
    peer_pk: &'a PublicKey,
    dim: usize,
) -> Result<PaillierBackend<'a>, CoreError> {
    let (mul_packing, dot_packing) = crate::domain::response_packings(cfg, dim)?;
    Ok(PaillierBackend {
        my_keypair,
        peer_pk,
        comparator: cfg.comparator,
        mul_packing,
        dot_packing,
        mul_mask_bound: cfg.mul_mask_bound(),
        dot_mask_bound: BigUint::from_u64(cfg.enhanced_mask_bound(dim)),
    })
}

/// The secret-sharing backend for a session that negotiated `tape`.
pub(crate) fn sharing_backend(
    cfg: &ProtocolConfig,
    tape: DealerTape,
    dim: usize,
) -> SharingBackend {
    SharingBackend {
        tape,
        dot_mask_bound: clamp_sharing_bound(&BigUint::from_u64(cfg.enhanced_mask_bound(dim))),
    }
}

/// The concrete backend a session runs its SMC workhorses on, for data of
/// dimension `dim`.
pub(crate) fn backend_for<'a>(
    cfg: &ProtocolConfig,
    session: &'a Session,
    dim: usize,
) -> Result<AnyBackend<'a>, CoreError> {
    Ok(match cfg.backend {
        BackendKind::Paillier => AnyBackend::Paillier(paillier_backend(
            cfg,
            &session.my_keypair,
            &session.peer_pk,
            dim,
        )?),
        BackendKind::Sharing => AnyBackend::Sharing(sharing_backend(
            cfg,
            session.tape.expect("sharing sessions negotiate a tape"),
            dim,
        )),
    })
}

impl ModeContext<'_> {
    /// This session's SMC backend for data of dimension `dim`.
    pub(crate) fn backend(&self, dim: usize) -> Result<AnyBackend<'_>, CoreError> {
        backend_for(self.cfg, self.session, dim)
    }
}
