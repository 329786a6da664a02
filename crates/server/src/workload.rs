//! Node-popularity models for generated query traffic.
//!
//! [`NodeSampler`] turns a seed and a [`NodePopularity`] into a
//! deterministic stream of node ids. Two models mirror how OLAP
//! dashboards hit cubes: [`NodePopularity::Uniform`] touches every node
//! equally (worst case for the page caches), while
//! [`NodePopularity::Zipf`] concentrates traffic on a few hot nodes via
//! the classic rank-frequency law, which is what makes the shared cache
//! pay off across threads.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cure_core::{CubeError, NodeId, Result};

/// How query traffic is spread over the cube's nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodePopularity {
    /// Every node equally likely.
    Uniform,
    /// Zipf-distributed over node rank with the given exponent
    /// (`s > 0.0`; ~0.8–1.2 models typical hot-spot skew). Node id `r`
    /// gets weight `1 / (r + 1)^s`.
    Zipf(f64),
}

/// SplitMix64-seeded xorshift stream with Lemire bounded sampling —
/// self-contained so the sampler has no RNG dependency.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        // One SplitMix64 step avoids degenerate small seeds (0 would
        // stick xorshift at 0 forever).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Stream((z ^ (z >> 31)).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Unbiased sample from `0..n` (multiply-shift).
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deterministic node-id sampler for a popularity model.
pub struct NodeSampler {
    nodes: u64,
    /// Cumulative normalized Zipf weights; empty for uniform.
    cdf: Vec<f64>,
    rng: Stream,
}

impl NodeSampler {
    /// Build a sampler over `nodes` node ids.
    pub fn new(nodes: u64, popularity: NodePopularity, seed: u64) -> Result<Self> {
        if nodes == 0 {
            return Err(CubeError::Config("cannot sample from an empty lattice".into()));
        }
        let cdf = match popularity {
            NodePopularity::Uniform => Vec::new(),
            NodePopularity::Zipf(s) => {
                if s <= 0.0 || !s.is_finite() {
                    return Err(CubeError::Config(format!(
                        "Zipf exponent must be positive and finite, got {s}"
                    )));
                }
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..nodes)
                    .map(|r| {
                        acc += 1.0 / ((r + 1) as f64).powf(s);
                        acc
                    })
                    .collect();
                let total = acc;
                for w in &mut cdf {
                    *w /= total;
                }
                cdf
            }
        };
        Ok(NodeSampler { nodes, cdf, rng: Stream::new(seed) })
    }

    /// The next node id in the stream.
    pub fn next_node(&mut self) -> NodeId {
        if self.cdf.is_empty() {
            return self.rng.below(self.nodes);
        }
        let u = self.rng.f64();
        // First rank whose cumulative weight exceeds u. total_cmp is safe
        // on any float, including a (theoretically impossible) NaN weight.
        match self.cdf.binary_search_by(|w| w.total_cmp(&u)) {
            Ok(i) | Err(i) => (i as u64).min(self.nodes - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sampler_is_deterministic_and_in_range() {
        let mut a = NodeSampler::new(24, NodePopularity::Uniform, 7).unwrap();
        let mut b = NodeSampler::new(24, NodePopularity::Uniform, 7).unwrap();
        let xs: Vec<_> = (0..500).map(|_| a.next_node()).collect();
        let ys: Vec<_> = (0..500).map(|_| b.next_node()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&n| n < 24));
        // All nodes get some traffic over 500 draws from 24 ids.
        let distinct: std::collections::BTreeSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), 24);
    }

    #[test]
    fn zipf_sampler_skews_toward_low_ranks() {
        let mut s = NodeSampler::new(100, NodePopularity::Zipf(1.0), 42).unwrap();
        let draws = 10_000;
        let mut counts = vec![0u64; 100];
        for _ in 0..draws {
            counts[s.next_node() as usize] += 1;
        }
        // Rank 0 should dominate rank 50 by a wide margin: the weight
        // ratio is 51:1, so even with sampling noise 5:1 is safe.
        assert!(counts[0] > 5 * counts[50].max(1), "{} vs {}", counts[0], counts[50]);
        // And the head should hold most of the mass.
        let head: u64 = counts[..10].iter().sum();
        assert!(head > draws / 2, "head only got {head} of {draws}");
    }

    #[test]
    fn zipf_rejects_bad_exponents() {
        assert!(NodeSampler::new(10, NodePopularity::Zipf(0.0), 1).is_err());
        assert!(NodeSampler::new(10, NodePopularity::Zipf(-1.0), 1).is_err());
        assert!(NodeSampler::new(10, NodePopularity::Zipf(f64::NAN), 1).is_err());
        assert!(NodeSampler::new(0, NodePopularity::Uniform, 1).is_err());
    }
}
