//! Warm-start re-solving: reuse a previous arrangement when the instance
//! changed only slightly.
//!
//! The serving engine (`igepa-engine`) maintains a current arrangement
//! under a stream of instance deltas. When its cheap greedy patching is no
//! longer good enough it escalates to a full re-solve — but a from-scratch
//! solve throws away everything the previous arrangement got right. The
//! [`WarmStart`] extension trait lets algorithms accept the previous
//! arrangement as a starting point.
//!
//! Every [`ArrangementAlgorithm`] gets a default (cold-start) impl, so the
//! engine can hold any solver as `Box<dyn WarmStart>`; algorithms with a
//! natural notion of seeding override the default:
//!
//! * [`GreedyArrangement`] replays the still-feasible previous pairs first
//!   (in weight order), then continues the usual global greedy pass;
//! * [`LocalSearch`] starts its neighbourhood walk from the repaired
//!   previous arrangement instead of from the greedy baseline.

use crate::greedy::GreedyArrangement;
use crate::local_search::LocalSearch;
use crate::runner::ArrangementAlgorithm;
use igepa_core::{Arrangement, EventId, Instance, UserId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Extension of [`ArrangementAlgorithm`] with warm-start re-solving.
///
/// The default implementation ignores the previous arrangement and runs the
/// algorithm cold, so implementing the trait is a one-liner for solvers
/// without a meaningful warm start.
pub trait WarmStart: ArrangementAlgorithm {
    /// Re-solves `instance`, optionally exploiting `previous` (an
    /// arrangement for an earlier version of the instance; it may be
    /// infeasible for the current one and must be re-validated).
    fn resolve_with_rng(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        rng: &mut dyn RngCore,
    ) -> Arrangement {
        let _ = previous;
        self.run_with_rng(instance, rng)
    }

    /// Seeded convenience wrapper around
    /// [`resolve_with_rng`](WarmStart::resolve_with_rng).
    fn resolve_seeded(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        seed: u64,
    ) -> Arrangement {
        let mut rng = StdRng::seed_from_u64(seed);
        self.resolve_with_rng(instance, previous, &mut rng)
    }
}

/// Sorts candidate pairs by decreasing weight (ties broken by ascending
/// `(event, user)` so results are deterministic even with equal or NaN
/// weights) and admits each pair that keeps `arrangement` feasible.
/// Returns the number of pairs admitted. This is the shared greedy
/// admission kernel of GG, warm-start completion and the engine's repair
/// patch.
pub fn admit_greedily(
    instance: &Instance,
    arrangement: &mut Arrangement,
    candidates: impl IntoIterator<Item = (EventId, UserId)>,
) -> usize {
    admit_greedily_with(instance, arrangement, candidates, |_, _| {})
}

/// [`admit_greedily`] with an observer invoked for every pair actually
/// admitted, in admission order. The serving engine threads its
/// incremental utility tracker through here so repair-path admissions
/// update the running sums without a post-hoc re-scan.
pub fn admit_greedily_with(
    instance: &Instance,
    arrangement: &mut Arrangement,
    candidates: impl IntoIterator<Item = (EventId, UserId)>,
    mut on_admit: impl FnMut(EventId, UserId),
) -> usize {
    let mut pairs: Vec<(f64, EventId, UserId)> = candidates
        .into_iter()
        .map(|(v, u)| (instance.weight(v, u), v, u))
        .collect();
    pairs.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut added = 0;
    for (_, v, u) in pairs {
        if can_assign(instance, arrangement, v, u) {
            arrangement.assign(v, u);
            on_admit(v, u);
            added += 1;
        }
    }
    added
}

/// Extracts the pairs of `previous` that remain feasible for `instance`,
/// admitting them greedily in decreasing weight order. Pairs whose event or
/// user no longer exists, whose bid was revoked, that overflow a capacity
/// or that conflict are dropped.
pub fn carry_over_feasible(instance: &Instance, previous: &Arrangement) -> Arrangement {
    let mut kept = Arrangement::empty_for(instance);
    admit_greedily(
        instance,
        &mut kept,
        previous.pairs().filter(|&(v, u)| {
            v.index() < instance.num_events() && u.index() < instance.num_users()
        }),
    );
    kept
}

/// Whether adding `(event, user)` keeps `arrangement` feasible for
/// `instance` (bid, both capacities, conflicts).
pub fn can_assign(
    instance: &Instance,
    arrangement: &Arrangement,
    event: EventId,
    user: UserId,
) -> bool {
    if !instance.user(user).has_bid(event) {
        return false;
    }
    if arrangement.load_of(event) >= instance.event(event).capacity {
        return false;
    }
    let current = arrangement.events_of(user);
    if current.len() >= instance.user(user).capacity {
        return false;
    }
    if arrangement.contains(event, user) {
        return false;
    }
    !current
        .iter()
        .any(|&w| instance.conflicts().conflicts(w, event))
}

impl WarmStart for GreedyArrangement {
    fn resolve_with_rng(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        _rng: &mut dyn RngCore,
    ) -> Arrangement {
        // Seed with the surviving previous pairs, then run the usual global
        // greedy pass over all bid pairs to fill what changed.
        let mut arrangement = carry_over_feasible(instance, previous);
        admit_greedily(instance, &mut arrangement, instance.bid_pairs());
        arrangement
    }
}

impl WarmStart for LocalSearch {
    fn resolve_with_rng(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        rng: &mut dyn RngCore,
    ) -> Arrangement {
        // Complete the carried-over pairs greedily, then let the local
        // search refine from there.
        let mut arrangement = GreedyArrangement.resolve_with_rng(instance, previous, rng);
        self.refine(instance, &mut arrangement);
        arrangement
    }
}

impl WarmStart for crate::lp_packing::LpPacking {
    /// Dual warm start: seed the packing LP's row prices from the previous
    /// arrangement (saturated events priced at their marginal attendee
    /// weight, see [`crate::lp_packing::LpPacking::event_prices_from`]),
    /// then round as usual. On the exact simplex backend the seed is
    /// ignored and this is a cold solve.
    fn resolve_with_rng(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        rng: &mut dyn RngCore,
    ) -> Arrangement {
        self.resolve_from_previous(instance, previous, rng)
    }
}

// Cold-start impls for the rest of the roster, so any solver can sit behind
// `Box<dyn WarmStart>` in the engine.
impl WarmStart for crate::lp_deterministic::LpDeterministic {}
impl WarmStart for crate::randomized::RandomU {}
impl WarmStart for crate::randomized::RandomV {}
impl WarmStart for crate::exact::ExactIlp {}
impl WarmStart for crate::bottleneck::BottleneckGreedy {}
impl WarmStart for crate::lagrangian::Lagrangian {}
impl WarmStart for crate::online_greedy::OnlineGreedy {}
impl WarmStart for crate::online_ranking::OnlineRanking {}
impl WarmStart for crate::portfolio::Portfolio {}
impl WarmStart for crate::simulated_annealing::SimulatedAnnealing {}
impl WarmStart for crate::tabu_search::TabuSearch {}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_core::{
        AttributeVector, CapacityTarget, ConstantInterest, InstanceDelta, NeverConflict,
    };

    fn instance_with_caps(event_caps: &[usize], user_cap: usize) -> Instance {
        let mut b = Instance::builder();
        let events: Vec<EventId> = event_caps
            .iter()
            .map(|&c| b.add_event(c, AttributeVector::empty()))
            .collect();
        b.add_user(user_cap, AttributeVector::empty(), events.clone());
        b.add_user(user_cap, AttributeVector::empty(), events);
        b.interaction_scores(vec![0.5, 0.5]);
        b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
    }

    #[test]
    fn carry_over_drops_pairs_made_infeasible() {
        let mut inst = instance_with_caps(&[2, 2], 2);
        let full = GreedyArrangement.run_seeded(&inst, 0);
        assert_eq!(full.len(), 4);
        // Shrink event 0 to capacity 1: one of its two pairs must go.
        inst.apply_delta(
            &InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 1,
            },
            &NeverConflict,
            &ConstantInterest(0.5),
        )
        .unwrap();
        let kept = carry_over_feasible(&inst, &full);
        assert!(kept.is_feasible(&inst));
        assert_eq!(kept.load_of(EventId::new(0)), 1);
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn warm_greedy_matches_cold_greedy_quality_on_static_instance() {
        let inst = instance_with_caps(&[1, 2, 1], 2);
        let cold = GreedyArrangement.run_seeded(&inst, 0);
        let warm = GreedyArrangement.resolve_seeded(&inst, &cold, 0);
        assert!(warm.is_feasible(&inst));
        assert!(warm.utility_value(&inst) >= cold.utility_value(&inst) - 1e-12);
    }

    #[test]
    fn warm_start_handles_grown_instance() {
        let mut inst = instance_with_caps(&[1], 3);
        let previous = GreedyArrangement.run_seeded(&inst, 0);
        inst.apply_delta(
            &InstanceDelta::AddEvent {
                capacity: 2,
                attrs: AttributeVector::empty(),
            },
            &NeverConflict,
            &ConstantInterest(0.5),
        )
        .unwrap();
        // Nobody bids for the new event yet; warm solve must stay feasible.
        let warm = GreedyArrangement.resolve_seeded(&inst, &previous, 0);
        assert!(warm.is_feasible(&inst));
        assert_eq!(warm.len(), previous.len());
    }

    #[test]
    fn default_impl_is_cold_start() {
        let inst = instance_with_caps(&[2, 2], 2);
        let previous = Arrangement::empty_for(&inst);
        let warm = crate::randomized::RandomU.resolve_seeded(&inst, &previous, 42);
        let cold = crate::randomized::RandomU.run_seeded(&inst, 42);
        assert_eq!(warm, cold);
    }

    /// A contended instance: one hot event everyone wants plus a spare.
    fn contended_instance(num_users: usize) -> Instance {
        let mut b = igepa_core::Instance::builder();
        let hot = b.add_event(2, igepa_core::AttributeVector::empty());
        let spare = b.add_event(num_users, igepa_core::AttributeVector::empty());
        for _ in 0..num_users {
            b.add_user(2, igepa_core::AttributeVector::empty(), vec![hot, spare]);
        }
        b.interaction_scores((0..num_users).map(|u| (u as f64 * 0.17) % 1.0).collect());
        b.build(
            &igepa_core::NeverConflict,
            &igepa_core::ConstantInterest(0.5),
        )
        .unwrap()
    }

    #[test]
    fn lp_packing_dual_warm_start_is_feasible_and_deterministic() {
        use crate::lp_packing::{LpBackend, LpPacking};
        let inst = contended_instance(12);
        let algo = LpPacking::with_backend(LpBackend::DualSubgradient { rounds: 300 });
        let previous = algo.run_seeded(&inst, 3);
        let warm_a = algo.resolve_seeded(&inst, &previous, 4);
        let warm_b = algo.resolve_seeded(&inst, &previous, 4);
        assert!(warm_a.is_feasible(&inst));
        assert_eq!(warm_a, warm_b, "warm resolve must be deterministic");
    }

    #[test]
    fn lp_packing_event_prices_mark_saturated_events() {
        use crate::lp_packing::LpPacking;
        let inst = contended_instance(6);
        let mut previous = Arrangement::empty_for(&inst);
        // Fill the hot event (capacity 2) and leave the spare unsaturated.
        previous.assign(EventId::new(0), UserId::new(0));
        previous.assign(EventId::new(0), UserId::new(1));
        previous.assign(EventId::new(1), UserId::new(2));
        let prices = LpPacking::event_prices_from(&inst, &previous);
        assert_eq!(prices.len(), 2);
        let expected = inst
            .weight(EventId::new(0), UserId::new(0))
            .min(inst.weight(EventId::new(0), UserId::new(1)));
        assert!((prices[0] - expected).abs() < 1e-12);
        assert_eq!(prices[1], 0.0, "unsaturated events stay free");
    }

    #[test]
    fn lp_packing_warm_start_retains_quality_on_static_instance() {
        use crate::lp_packing::{LpBackend, LpPacking};
        let inst = contended_instance(16);
        let strong = LpPacking::with_backend(LpBackend::DualSubgradient { rounds: 1200 });
        let cold_strong = strong.run_seeded(&inst, 7);
        // A warm resolve with FAR fewer subgradient rounds, seeded by the
        // strong solution's saturation pattern, must stay competitive.
        let quick = LpPacking::with_backend(LpBackend::DualSubgradient { rounds: 60 });
        let warm = quick.resolve_seeded(&inst, &cold_strong, 7);
        assert!(warm.is_feasible(&inst));
        let cold_value = cold_strong.utility_value(&inst);
        let warm_value = warm.utility_value(&inst);
        assert!(
            warm_value >= 0.9 * cold_value,
            "warm {warm_value} fell too far below cold {cold_value}"
        );
    }

    #[test]
    fn lp_packing_simplex_warm_start_is_feasible_and_deterministic() {
        use crate::lp_packing::{LpBackend, LpPacking};
        let inst = contended_instance(4);
        let algo = LpPacking::with_backend(LpBackend::Simplex);
        let previous = algo.run_seeded(&inst, 1);
        let warm_a = algo.resolve_seeded(&inst, &previous, 2);
        let warm_b = algo.resolve_seeded(&inst, &previous, 2);
        assert!(warm_a.is_feasible(&inst));
        assert_eq!(warm_a, warm_b, "warm resolve must be deterministic");
    }

    #[test]
    fn lp_packing_simplex_warm_start_matches_the_cold_lp_value() {
        use crate::lp_packing::{LpBackend, LpPacking};
        use igepa_core::AdmissibleSetIndex;
        let inst = contended_instance(10);
        let algo = LpPacking::with_backend(LpBackend::Simplex);
        let admissible = AdmissibleSetIndex::build(&inst).unwrap();
        let cold = algo.solve_benchmark_lp(&inst, &admissible);
        let previous = algo.run_seeded(&inst, 5);
        let warm = algo.solve_benchmark_lp_warm(&inst, &admissible, Some(&previous));
        // The warm start changes where the simplex begins, never where it
        // ends: the fractional optima carry the same objective value.
        let value = |fractional: &Vec<Vec<(Vec<EventId>, f64)>>| -> f64 {
            fractional
                .iter()
                .enumerate()
                .map(|(u, sets)| {
                    sets.iter()
                        .map(|(s, x)| x * inst.set_weight(UserId::new(u), s))
                        .sum::<f64>()
                })
                .sum()
        };
        let cold_value = value(&cold);
        let warm_value = value(&warm);
        assert!(
            (warm_value - cold_value).abs() < 1e-7,
            "warm {warm_value} vs cold {cold_value}"
        );
    }
}
