//! Workload generators for the paper's experiments.
//!
//! Two workload shapes cover the whole evaluation:
//!
//! * **Uniform lookups** — "each node made a total of n/4 lookup requests
//!   to random destinations" (§4.1) and "we performed 10,000 lookups with
//!   random sources and destinations" (§4.3);
//! * **Key populations** — "we varied the total number of keys to be
//!   distributed from 10^4 to 10^5" (§4.2).

use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use crate::overlay::{NodeToken, Overlay};

/// One lookup request: a source node and a raw (pre-hash) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupRequest {
    /// The node the request originates at.
    pub src: NodeToken,
    /// The raw key; overlays hash it into their own identifier space.
    pub raw_key: u64,
}

/// Generates `per_node` lookups from *every* live node to uniformly random
/// keys, shuffled into a random issue order (§4.1's workload).
pub fn per_node_uniform<O: Overlay + ?Sized>(
    overlay: &O,
    per_node: usize,
    rng: &mut dyn RngCore,
) -> Vec<LookupRequest> {
    let tokens = overlay.node_tokens();
    let mut reqs = Vec::with_capacity(tokens.len() * per_node);
    for &src in &tokens {
        for _ in 0..per_node {
            reqs.push(LookupRequest {
                src,
                raw_key: rng.gen::<u64>(),
            });
        }
    }
    reqs.shuffle(rng);
    reqs
}

/// Generates `count` lookups with uniformly random sources and keys
/// (§4.3's workload).
pub fn random_pairs<O: Overlay + ?Sized>(
    overlay: &O,
    count: usize,
    rng: &mut dyn RngCore,
) -> Vec<LookupRequest> {
    let tokens = overlay.node_tokens();
    assert!(
        !tokens.is_empty(),
        "cannot generate lookups on an empty overlay"
    );
    (0..count)
        .map(|_| LookupRequest {
            src: tokens[rng.gen_range(0..tokens.len())],
            raw_key: rng.gen::<u64>(),
        })
        .collect()
}

/// Generates a population of `count` uniformly random raw keys (§4.2).
pub fn key_population(count: usize, rng: &mut dyn RngCore) -> Vec<u64> {
    (0..count).map(|_| rng.gen::<u64>()).collect()
}

/// A Zipf-distributed sampler over a fixed key catalogue: key `i` (by
/// popularity rank) is drawn with probability proportional to
/// `1 / (i+1)^exponent`. Models the skewed object popularity behind the
/// "hot-spots are generated for too frequently accessed files" weakness
/// the paper's §2 attributes to structured DHTs.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    keys: Vec<u64>,
    /// Cumulative (unnormalized) weights for inverse-CDF sampling.
    cdf: Vec<f64>,
}

impl ZipfKeys {
    /// Builds a catalogue of `count` keys with Zipf exponent `exponent`
    /// (1.0 is the classic web-object value).
    ///
    /// # Panics
    /// Panics if `count == 0` or `exponent < 0`.
    #[must_use]
    pub fn new(count: usize, exponent: f64, rng: &mut dyn RngCore) -> Self {
        assert!(count > 0, "catalogue must be non-empty");
        assert!(exponent >= 0.0, "exponent must be non-negative");
        let keys = key_population(count, rng);
        let mut cdf = Vec::with_capacity(count);
        let mut total = 0.0f64;
        for i in 0..count {
            total += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        Self { keys, cdf }
    }

    /// Number of distinct keys in the catalogue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff the catalogue is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All catalogue keys, most popular first.
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Draws one key with Zipf-distributed popularity.
    pub fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        let total = *self.cdf.last().expect("non-empty");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
        let idx = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[idx]
    }
}

/// Generates `count` lookups with uniformly random sources and
/// Zipf-popular keys from `catalogue`.
pub fn zipf_pairs<O: Overlay + ?Sized>(
    overlay: &O,
    catalogue: &ZipfKeys,
    count: usize,
    rng: &mut dyn RngCore,
) -> Vec<LookupRequest> {
    let tokens = overlay.node_tokens();
    assert!(
        !tokens.is_empty(),
        "cannot generate lookups on an empty overlay"
    );
    (0..count)
        .map(|_| LookupRequest {
            src: tokens[rng.gen_range(0..tokens.len())],
            raw_key: catalogue.sample(rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;
    use crate::sim::fixture::StaleRing;

    /// A ring of the tokens `0..n`.
    fn ring(n: u64) -> StaleRing {
        StaleRing::with_tokens(&(0..n).collect::<Vec<_>>(), 64)
    }

    #[test]
    fn per_node_uniform_counts() {
        let o = ring(10);
        let reqs = per_node_uniform(&o, 4, &mut stream(1, "w"));
        assert_eq!(reqs.len(), 40);
        // Every node appears exactly 4 times as a source.
        for t in 0..10u64 {
            assert_eq!(reqs.iter().filter(|r| r.src == t).count(), 4);
        }
    }

    #[test]
    fn random_pairs_sources_are_live() {
        let o = ring(5);
        let reqs = random_pairs(&o, 100, &mut stream(2, "w"));
        assert_eq!(reqs.len(), 100);
        assert!(reqs.iter().all(|r| r.src < 5));
    }

    #[test]
    fn key_population_size_and_determinism() {
        let a = key_population(50, &mut stream(3, "k"));
        let b = key_population(50, &mut stream(3, "k"));
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty overlay")]
    fn random_pairs_rejects_empty() {
        let o = ring(0);
        let _ = random_pairs(&o, 1, &mut stream(4, "w"));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = stream(5, "zipf");
        let cat = ZipfKeys::new(1000, 1.0, &mut rng);
        let top = cat.keys()[0];
        let second = cat.keys()[1];
        let mut top_hits = 0u32;
        let mut second_hits = 0u32;
        for _ in 0..20_000 {
            let k = cat.sample(&mut rng);
            if k == top {
                top_hits += 1;
            } else if k == second {
                second_hits += 1;
            }
        }
        // Rank 1 is drawn ~2x as often as rank 2 under exponent 1.
        assert!(top_hits > second_hits, "{top_hits} vs {second_hits}");
        let ratio = f64::from(top_hits) / f64::from(second_hits.max(1));
        assert!((1.5..=2.8).contains(&ratio), "ratio {ratio} should be ~2");
        // And takes a substantial share overall (1/H_1000 ~ 13%).
        let share = f64::from(top_hits) / 20_000.0;
        assert!((0.08..=0.20).contains(&share), "top share {share}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let mut rng = stream(6, "zipf0");
        let cat = ZipfKeys::new(16, 0.0, &mut rng);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..16_000 {
            *counts.entry(cat.sample(&mut rng)).or_insert(0u32) += 1;
        }
        for &k in cat.keys() {
            let c = counts.get(&k).copied().unwrap_or(0);
            assert!((700..=1300).contains(&c), "count {c} not ~1000");
        }
    }

    #[test]
    fn zipf_pairs_draw_from_catalogue() {
        let o = ring(8);
        let mut rng = stream(7, "zp");
        let cat = ZipfKeys::new(50, 1.0, &mut rng);
        let reqs = zipf_pairs(&o, &cat, 200, &mut rng);
        assert_eq!(reqs.len(), 200);
        assert!(reqs.iter().all(|r| cat.keys().contains(&r.raw_key)));
        assert!(reqs.iter().all(|r| r.src < 8));
    }
}
