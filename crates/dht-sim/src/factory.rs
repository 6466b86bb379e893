//! Overlay construction with the paper's sizing rules.
//!
//! The §4 experiments compare networks of equal *node count* `n`:
//!
//! * Cycloid uses the smallest dimension `d` whose identifier space
//!   `d * 2^d` holds `n` nodes (the paper's sizes `n = d * 2^d` make this
//!   exact);
//! * Chord and Koorde use a `2^⌈log₂ n⌉` ring;
//! * Viceroy draws real identifiers, with levels from `[1, ⌈log₂ n⌉]`.

use can::{CanConfig, CanNetwork};
use chord::{ChordConfig, ChordNetwork};
use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::overlay::Overlay;
use koorde::{KoordeConfig, KoordeNetwork};
use pastry::{PastryConfig, PastryNetwork};
use viceroy::{ViceroyConfig, ViceroyNetwork};

/// The overlays under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlayKind {
    /// Cycloid with the seven-entry routing state (leaf radius 1).
    Cycloid7,
    /// Cycloid with the eleven-entry routing state (leaf radius 2).
    Cycloid11,
    /// Viceroy butterfly.
    Viceroy,
    /// Koorde with one de Bruijn node, three successors, three backups.
    Koorde,
    /// Koorde with the best-fit imaginary-start optimization (ablation).
    KoordeBestFit,
    /// Chord reference with `O(log n)` fingers.
    Chord,
    /// Pastry-style prefix-routing hypercube DHT (extension baseline).
    Pastry,
    /// CAN 2-dimensional torus (extension baseline).
    Can,
}

impl OverlayKind {
    /// Display name matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OverlayKind::Cycloid7 => "Cycloid(7)",
            OverlayKind::Cycloid11 => "Cycloid(11)",
            OverlayKind::Viceroy => "Viceroy",
            OverlayKind::Koorde => "Koorde",
            OverlayKind::KoordeBestFit => "Koorde(best-fit)",
            OverlayKind::Chord => "Chord",
            OverlayKind::Pastry => "Pastry",
            OverlayKind::Can => "CAN(d=2)",
        }
    }
}

/// The five systems every figure of the paper plots.
pub const PAPER_KINDS: [OverlayKind; 5] = [
    OverlayKind::Cycloid7,
    OverlayKind::Cycloid11,
    OverlayKind::Viceroy,
    OverlayKind::Koorde,
    OverlayKind::Chord,
];

/// All kinds, including ablation variants and extension baselines.
pub const ALL_KINDS: [OverlayKind; 8] = [
    OverlayKind::Cycloid7,
    OverlayKind::Cycloid11,
    OverlayKind::Viceroy,
    OverlayKind::Koorde,
    OverlayKind::KoordeBestFit,
    OverlayKind::Chord,
    OverlayKind::Pastry,
    OverlayKind::Can,
];

/// The paper's systems plus the extension baselines of Table 1 (Pastry's
/// hypercube prefix routing, CAN's mesh).
pub const EXTENDED_KINDS: [OverlayKind; 7] = [
    OverlayKind::Cycloid7,
    OverlayKind::Cycloid11,
    OverlayKind::Viceroy,
    OverlayKind::Koorde,
    OverlayKind::Chord,
    OverlayKind::Pastry,
    OverlayKind::Can,
];

/// Smallest Cycloid dimension whose identifier space holds `n` nodes.
#[must_use]
pub fn cycloid_dim_for(n: usize) -> u32 {
    let mut d = 1u32;
    while (u64::from(d) << d) < n as u64 {
        d += 1;
    }
    d
}

/// Ring bit-width for Chord/Koorde: `⌈log₂ n⌉`, at least 3.
#[must_use]
pub fn ring_bits_for(n: usize) -> u32 {
    let mut bits = 3u32;
    while (1u64 << bits) < n as u64 {
        bits += 1;
    }
    bits
}

/// Builds a stabilized overlay of `kind` with `n` nodes, deterministically
/// from `seed`. The identifier space is sized to fit `n` (the §4.1 sizing
/// rule); use [`build_overlay_spaced`] when the paper fixes the space
/// independently of the population (§4.2, §4.5).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn build_overlay(kind: OverlayKind, n: usize, seed: u64) -> Box<dyn Overlay> {
    build_overlay_spaced(kind, n, n, seed)
}

/// Builds a stabilized overlay of `kind` with `n` nodes inside an
/// identifier space of at least `id_space` slots ("an ID space of 2048
/// nodes", §4.2/§4.5): Cycloid picks the smallest dimension whose
/// `d * 2^d` space holds `id_space`, Chord/Koorde a `2^⌈log₂ id_space⌉`
/// ring. Viceroy's real-number space is population-independent.
///
/// # Panics
/// Panics if `n == 0` or `n > id_space` capacity.
#[must_use]
pub fn build_overlay_spaced(
    kind: OverlayKind,
    n: usize,
    id_space: usize,
    seed: u64,
) -> Box<dyn Overlay> {
    assert!(n > 0, "cannot build an empty overlay");
    let id_space = id_space.max(n);
    let (dim, bits) = (cycloid_dim_for(id_space), ring_bits_for(id_space));
    let koorde =
        |config| -> Box<dyn Overlay> { Box::new(KoordeNetwork::with_nodes(config, n, seed)) };
    match kind {
        OverlayKind::Cycloid7 => {
            let config = CycloidConfig::seven_entry(dim);
            Box::new(CycloidNetwork::with_nodes(config, n, seed))
        }
        OverlayKind::Cycloid11 => {
            let config = CycloidConfig::eleven_entry(dim);
            Box::new(CycloidNetwork::with_nodes(config, n, seed))
        }
        OverlayKind::Viceroy => Box::new(ViceroyNetwork::with_nodes(ViceroyConfig::new(), n, seed)),
        OverlayKind::Koorde => koorde(KoordeConfig::new(bits)),
        OverlayKind::KoordeBestFit => koorde(KoordeConfig::with_best_fit(bits)),
        OverlayKind::Chord => Box::new(ChordNetwork::with_nodes(ChordConfig::new(bits), n, seed)),
        OverlayKind::Pastry => {
            // Round the ring up to a whole number of base-4 digits.
            let config = PastryConfig::new(bits.div_ceil(2) * 2);
            Box::new(PastryNetwork::with_nodes(config, n, seed))
        }
        OverlayKind::Can => Box::new(CanNetwork::with_nodes(CanConfig::new(2), n, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycloid_dims_match_paper_sizes() {
        // The paper's n = d * 2^d sizes must map back to exactly d.
        for d in 3..=8u32 {
            let n = (u64::from(d) << d) as usize;
            assert_eq!(cycloid_dim_for(n), d, "n = {n}");
        }
    }

    #[test]
    fn ring_bits_cover_n() {
        assert_eq!(ring_bits_for(2048), 11);
        assert_eq!(ring_bits_for(2000), 11);
        assert_eq!(ring_bits_for(24), 5);
        assert_eq!(ring_bits_for(1), 3);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in ALL_KINDS {
            let net = build_overlay(kind, 64, 1);
            assert_eq!(net.len(), 64, "{}", kind.label());
            assert!(!net.name().is_empty());
        }
    }

    #[test]
    fn factory_lookup_smoke() {
        let mut rng = dht_core::rng::stream(2, "factory");
        for kind in ALL_KINDS {
            let mut net = build_overlay(kind, 100, 3);
            let src = net.random_node(&mut rng).unwrap();
            let t = net.lookup(src, 424_242);
            assert!(
                t.outcome.is_success(),
                "{} lookup failed: {:?}",
                kind.label(),
                t.outcome
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ALL_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ALL_KINDS.len());
    }
}
