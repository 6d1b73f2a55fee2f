//! Exact per-pair *route distributions* — the closed-form counterpart of
//! sampling a randomised scheme over many seeds.
//!
//! The paper evaluates its randomised schemes (Random, r-NCA-u, r-NCA-d) by
//! drawing 40–60 seeds and replaying each draw through the simulator. For
//! flow-level (channel-load) analysis that Monte Carlo loop is unnecessary:
//! each scheme's construction fixes the *probability* with which a pair
//! `(s, d)` is assigned each minimal route, and expected channel loads are
//! linear in those probabilities. [`RouteDistribution`] exposes that
//! distribution per pair; `xgft-flow` consumes it to compute exact expected
//! loads and maximum channel load without seeds.
//!
//! Every minimal route is an up-port sequence, and for every scheme in this
//! crate the port choices at different levels are independent, so a
//! distribution is represented in *product form*: one probability vector per
//! ascent level ([`RouteDist`]). Deterministic schemes are the degenerate
//! case (a point mass at `route()`), which is what the trait's default
//! implementation returns — sampling the scheme once is exact when there is
//! no randomness to marginalise.
//!
//! For the randomised schemes the marginalisation is over *construction*
//! randomness (the seed):
//!
//! * **Random** assigns each level-`l` port uniformly and independently, so
//!   the distribution is the uniform product over `Π w_{l+1}` routes.
//! * **r-NCA-u / r-NCA-d** draw balanced random maps
//!   ([`crate::RelabelMaps`]); by symmetry of the balanced-map construction
//!   every child digit lands on every port with probability `1/w_{l+1}`, and
//!   maps at different digit positions are independent. The *marginal* route
//!   distribution of a single pair is therefore identical to Random's
//!   (balancedness only shows up jointly, across pairs that share a map) —
//!   which is why seed-averaged r-NCA channel loads coincide with Random's
//!   expected loads even though individual draws are far better balanced.

use crate::algorithm::RoutingAlgorithm;
use crate::modk::ModKGuide;
use xgft_topo::{Route, Xgft};

/// A product-form probability distribution over the minimal routes of one
/// (source, destination) pair.
///
/// `level_dist(l)[p]` is the probability that the route takes up-port `p`
/// when moving from level `l` to level `l + 1`; choices at different levels
/// are independent, so a full route's probability is the product of its
/// per-level port probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDist {
    /// `levels[l][p]` = probability of up-port `p` at ascent level `l`.
    levels: Vec<Vec<f64>>,
}

impl RouteDist {
    /// Build a distribution from explicit per-level port probability
    /// vectors.
    ///
    /// # Panics
    /// Panics if any level's probabilities do not sum to 1 (within 1e-9) or
    /// contain a negative entry.
    pub fn from_levels(levels: Vec<Vec<f64>>) -> Self {
        for (l, dist) in levels.iter().enumerate() {
            let sum: f64 = dist.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "level {l} port probabilities sum to {sum}, expected 1"
            );
            assert!(
                dist.iter().all(|&p| p >= 0.0),
                "level {l} has a negative port probability"
            );
        }
        RouteDist { levels }
    }

    /// The point mass at a single deterministic route (the default for
    /// schemes without construction randomness).
    pub fn point(xgft: &Xgft, route: &Route) -> Self {
        let spec = xgft.spec();
        let levels = (0..route.nca_level())
            .map(|l| {
                let w = spec.w(l + 1);
                let mut dist = vec![0.0; w];
                dist[route.up_port(l)] = 1.0;
                dist
            })
            .collect();
        RouteDist { levels }
    }

    /// The uniform distribution over every minimal route climbing to
    /// `level` (Random's closed form).
    pub fn uniform(xgft: &Xgft, level: usize) -> Self {
        let spec = xgft.spec();
        let levels = (0..level)
            .map(|l| {
                let w = spec.w(l + 1);
                vec![1.0 / w as f64; w]
            })
            .collect();
        RouteDist { levels }
    }

    /// The NCA level this distribution's routes climb to.
    pub fn nca_level(&self) -> usize {
        self.levels.len()
    }

    /// The port probability vector at ascent level `l`.
    pub fn level_dist(&self, l: usize) -> &[f64] {
        &self.levels[l]
    }

    /// All per-level port probability vectors.
    pub fn levels(&self) -> &[Vec<f64>] {
        &self.levels
    }

    /// The probability this distribution assigns to a specific route.
    pub fn prob_of(&self, route: &Route) -> f64 {
        if route.nca_level() != self.nca_level() {
            return 0.0;
        }
        (0..self.nca_level())
            .map(|l| self.levels[l][route.up_port(l)])
            .product()
    }

    /// Expand into the explicit list of `(route, probability)` pairs with
    /// non-zero probability. Exponential in the height — intended for tests
    /// and small instances; flow-level analysis works on the product form
    /// directly.
    pub fn expand(&self) -> Vec<(Route, f64)> {
        let mut acc: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 1.0)];
        for dist in &self.levels {
            let mut next = Vec::with_capacity(acc.len() * dist.len());
            for (ports, prob) in &acc {
                for (p, &q) in dist.iter().enumerate() {
                    if q > 0.0 {
                        let mut ports = ports.clone();
                        ports.push(p);
                        next.push((ports, prob * q));
                    }
                }
            }
            acc = next;
        }
        acc.into_iter()
            .map(|(ports, prob)| (Route::new(ports), prob))
            .collect()
    }
}

/// Routing schemes that can report the exact probability distribution of
/// their per-pair route choice.
///
/// The default implementation returns the point mass at [`route()`] — a
/// single "sample", which is exact for deterministic schemes (S-mod-k,
/// D-mod-k, Colored). Schemes with construction randomness override
/// [`route_dist`] with the closed form marginalised over their seed, so
/// flow-level analysis replaces seed sweeps with one exact computation.
///
/// [`route()`]: RoutingAlgorithm::route
/// [`route_dist`]: RouteDistribution::route_dist
pub trait RouteDistribution: RoutingAlgorithm {
    /// The distribution over minimal routes the scheme assigns to `(s, d)`,
    /// marginalised over any construction randomness.
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        RouteDist::point(xgft, &self.route(xgft, s, d))
    }

    /// For schemes whose route distribution is the same for *every* pair at
    /// a given NCA level: the full-height per-level port distributions (a
    /// pair at NCA level `L` uses the first `L` entries). `None` (the
    /// default) when the distribution depends on the pair. This is the hook
    /// `xgft-flow` uses for its O(channels) uniform-traffic closed form.
    fn pair_invariant_levels(&self, _xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        None
    }

    /// For schemes whose ascent is the mod-k port sequence
    /// ([`crate::modk::mod_k_port`]) of one endpoint's label alone: which
    /// endpoint guides it. `None` (the default) for every other scheme.
    /// `xgft-flow` uses this hook for its `O(n·h + channels)` uniform-traffic
    /// closed form, which counts guide leaves per channel instead of
    /// enumerating pairs.
    fn mod_k_guide(&self) -> Option<ModKGuide> {
        None
    }
}

impl<T: RouteDistribution + ?Sized> RouteDistribution for &T {
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        (**self).route_dist(xgft, s, d)
    }
    fn pair_invariant_levels(&self, xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        (**self).pair_invariant_levels(xgft)
    }
    fn mod_k_guide(&self) -> Option<ModKGuide> {
        (**self).mod_k_guide()
    }
}

impl<T: RouteDistribution + ?Sized> RouteDistribution for Box<T> {
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        (**self).route_dist(xgft, s, d)
    }
    fn pair_invariant_levels(&self, xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        (**self).pair_invariant_levels(xgft)
    }
    fn mod_k_guide(&self) -> Option<ModKGuide> {
        (**self).mod_k_guide()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::random::RandomRouting;
    use crate::rnca::{RandomNcaDown, RandomNcaUp};
    use xgft_topo::XgftSpec;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn point_distribution_is_exact_for_deterministic_schemes() {
        let xgft = two_level(10);
        for algo in [&SModK::new() as &dyn RouteDistribution, &DModK::new()] {
            for (s, d) in [(0usize, 20usize), (5, 250), (17, 18)] {
                let dist = algo.route_dist(&xgft, s, d);
                let route = algo.route(&xgft, s, d);
                assert_eq!(dist.nca_level(), route.nca_level());
                assert!((dist.prob_of(&route) - 1.0).abs() < 1e-12);
                let expanded = dist.expand();
                assert_eq!(expanded.len(), 1);
                assert_eq!(expanded[0].0, route);
            }
        }
    }

    #[test]
    fn random_distribution_is_uniform_over_all_routes() {
        let xgft = two_level(10);
        let algo = RandomRouting::new(7);
        let dist = algo.route_dist(&xgft, 0, 200);
        assert_eq!(dist.nca_level(), 2);
        let expanded = dist.expand();
        // 1 choice at level 0 (w1 = 1) x 10 roots.
        assert_eq!(expanded.len(), 10);
        for (route, prob) in &expanded {
            assert!((prob - 0.1).abs() < 1e-12);
            assert!(xgft.validate_route(0, 200, route).is_ok());
        }
        // The sampled route of any seed lies in the distribution's support.
        assert!(dist.prob_of(&algo.route(&xgft, 0, 200)) > 0.0);
    }

    #[test]
    fn rnca_marginals_match_random_on_switch_levels() {
        // The balanced-map expectation: uniform over ports at every switch
        // level, deterministic at the leaf hop (w1 = 1).
        let xgft = two_level(10);
        let up = RandomNcaUp::new(&xgft, 3);
        let down = RandomNcaDown::new(&xgft, 3);
        let random = RandomRouting::new(3);
        for (s, d) in [(0usize, 200usize), (30, 31), (255, 0)] {
            let r = random.route_dist(&xgft, s, d);
            assert_eq!(up.route_dist(&xgft, s, d), r);
            assert_eq!(down.route_dist(&xgft, s, d), r);
        }
    }

    #[test]
    fn pair_invariant_levels_cover_random_and_rnca() {
        let xgft = two_level(10);
        let levels = RandomRouting::new(1).pair_invariant_levels(&xgft).unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], vec![1.0]);
        assert_eq!(levels[1].len(), 10);
        let rnca = RandomNcaUp::new(&xgft, 1).pair_invariant_levels(&xgft);
        assert_eq!(rnca, Some(levels));
        // Deterministic schemes depend on the pair.
        assert!(DModK::new().pair_invariant_levels(&xgft).is_none());
    }

    #[test]
    fn mod_k_guides_name_the_guiding_endpoint() {
        assert_eq!(SModK::new().mod_k_guide(), Some(ModKGuide::Source));
        assert_eq!(DModK::new().mod_k_guide(), Some(ModKGuide::Destination));
        let xgft = two_level(10);
        assert_eq!(RandomRouting::new(1).mod_k_guide(), None);
        assert_eq!(RandomNcaDown::new(&xgft, 1).mod_k_guide(), None);
        // The hook forwards through boxes like the other two.
        let boxed: Box<dyn RouteDistribution> = Box::new(DModK::new());
        assert_eq!(boxed.mod_k_guide(), Some(ModKGuide::Destination));
    }

    #[test]
    fn distributions_forward_through_refs_and_boxes() {
        let xgft = two_level(16);
        let algo = RandomRouting::new(1);
        let by_ref: &dyn RouteDistribution = &algo;
        let boxed: Box<dyn RouteDistribution> = Box::new(RandomRouting::new(1));
        assert_eq!(
            by_ref.route_dist(&xgft, 0, 100),
            boxed.route_dist(&xgft, 0, 100)
        );
        assert_eq!(
            by_ref.pair_invariant_levels(&xgft),
            boxed.pair_invariant_levels(&xgft)
        );
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn non_normalised_levels_are_rejected() {
        let _ = RouteDist::from_levels(vec![vec![0.5, 0.4]]);
    }
}
