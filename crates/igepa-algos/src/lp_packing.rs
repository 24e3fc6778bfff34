//! LP-packing (Algorithm 1 of the paper).
//!
//! The algorithm solves the benchmark LP (1)–(4) over admissible event sets,
//! samples one admissible set per user with probability `α · x*_{u,S}`, and
//! repairs event-capacity violations by removing events from the sampled
//! sets. With `α = ½` the expected utility is at least ¼ of the optimum
//! (Theorem 2); the paper's experiments set `α = 1`, which empirically works
//! better because the repair step already handles over-subscription.
//!
//! The LP backend is pluggable:
//!
//! * [`LpBackend::Simplex`] — the exact bounded-variable simplex of
//!   `igepa-lp` (what the paper obtains from Gurobi);
//! * [`LpBackend::DualSubgradient`] — the structure-aware approximate
//!   packing solver, which scales to the paper's largest sweeps;
//! * [`LpBackend::Auto`] — simplex when the LP is small enough
//!   (`|U| + |V|` below a threshold), the packing solver otherwise.

use crate::runner::ArrangementAlgorithm;
use igepa_core::{AdmissibleSetIndex, Arrangement, EventId, Instance, UserId};
use igepa_lp::{
    BlockPackingProblem, BlockPackingSolver, LinearProgram, PackingBlock, PackingColumn,
    SimplexSolver,
};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Which LP solver backs the benchmark LP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LpBackend {
    /// Exact bounded-variable revised simplex.
    Simplex,
    /// Approximate dual-subgradient packing solver with the given number of
    /// rounds.
    DualSubgradient {
        /// Subgradient rounds (600–2000 is a good range).
        rounds: usize,
    },
    /// Simplex when `|U| + |V|` is at most the threshold, dual subgradient
    /// otherwise.
    Auto {
        /// Row-count threshold above which the approximate solver is used.
        row_threshold: usize,
    },
}

impl Default for LpBackend {
    fn default() -> Self {
        LpBackend::Auto {
            row_threshold: 1200,
        }
    }
}

/// The LP-packing algorithm (Algorithm 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpPacking {
    /// Sampling parameter α. Theorem 2 uses ½; the paper's evaluation uses 1.
    pub alpha: f64,
    /// LP backend.
    pub backend: LpBackend,
    /// Per-user cap on admissible-set enumeration.
    pub admissible_set_limit: usize,
}

impl Default for LpPacking {
    /// The paper's empirical configuration: `α = 1`, automatic backend.
    fn default() -> Self {
        LpPacking {
            alpha: 1.0,
            backend: LpBackend::default(),
            admissible_set_limit: igepa_core::DEFAULT_SET_LIMIT,
        }
    }
}

impl LpPacking {
    /// LP-packing with the theoretical `α = ½` (used by the approximation
    /// ratio study).
    pub fn theoretical() -> Self {
        LpPacking {
            alpha: 0.5,
            ..Self::default()
        }
    }

    /// LP-packing with a specific α.
    pub fn with_alpha(alpha: f64) -> Self {
        LpPacking {
            alpha,
            ..Self::default()
        }
    }

    /// LP-packing forced onto a specific backend.
    pub fn with_backend(backend: LpBackend) -> Self {
        LpPacking {
            backend,
            ..Self::default()
        }
    }

    /// Solves the benchmark LP (1)–(4) and returns, per user, the admissible
    /// sets together with their fractional values `x*_{u,S}`.
    pub fn solve_benchmark_lp(
        &self,
        instance: &Instance,
        admissible: &AdmissibleSetIndex,
    ) -> Vec<Vec<(Vec<EventId>, f64)>> {
        self.solve_benchmark_lp_warm(instance, admissible, None)
    }

    /// As [`LpPacking::solve_benchmark_lp`], optionally warm-started from
    /// a previous arrangement. On the dual-subgradient backend the
    /// previous arrangement seeds the row prices (see
    /// [`LpPacking::event_prices_from`]) — the dual warm start. The exact
    /// simplex backend crashes a primal basis from it instead
    /// ([`SimplexBasis`](igepa_lp::SimplexBasis)): every admissible set a user held verbatim in
    /// the previous arrangement starts at its upper bound, so the
    /// re-solve pays only the pivots the instance change requires while
    /// returning exactly the cold optimum.
    pub fn solve_benchmark_lp_warm(
        &self,
        instance: &Instance,
        admissible: &AdmissibleSetIndex,
        previous: Option<&Arrangement>,
    ) -> Vec<Vec<(Vec<EventId>, f64)>> {
        let use_simplex = match self.backend {
            LpBackend::Simplex => true,
            LpBackend::DualSubgradient { .. } => false,
            LpBackend::Auto { row_threshold } => {
                instance.num_users() + instance.num_events() <= row_threshold
            }
        };
        if use_simplex {
            self.solve_with_simplex(instance, admissible, previous)
        } else {
            let rounds = match self.backend {
                LpBackend::DualSubgradient { rounds } => rounds,
                // Auto backend: spend more rounds on larger LPs so that the
                // dual prices have converged enough to prioritise the right
                // users on contended events.
                _ => 1500,
            };
            let prices = previous.map(|prev| Self::event_prices_from(instance, prev));
            self.solve_with_packing(instance, admissible, rounds, prices.as_deref())
        }
    }

    /// Derives initial dual prices (one per event) from a previous
    /// arrangement: an event that was filled to capacity is priced at the
    /// marginal (lowest) weight of its attendees — the classic dual
    /// estimate "what does one more seat earn" — while under-subscribed
    /// events stay free. Feeding these into
    /// [`BlockPackingSolver::solve_warm`] lets the subgradient ascent
    /// start near the prices the previous solve ended at instead of
    /// re-pricing every contended event from zero.
    pub fn event_prices_from(instance: &Instance, previous: &Arrangement) -> Vec<f64> {
        let num_events = instance.num_events();
        let mut load = vec![0usize; num_events];
        let mut min_weight = vec![f64::INFINITY; num_events];
        for (v, u) in previous.pairs() {
            if v.index() >= num_events || u.index() >= instance.num_users() {
                continue;
            }
            load[v.index()] += 1;
            let w = instance.weight(v, u);
            if w < min_weight[v.index()] {
                min_weight[v.index()] = w;
            }
        }
        (0..num_events)
            .map(|i| {
                let capacity = instance.event(EventId::new(i)).capacity;
                if capacity > 0 && load[i] >= capacity && min_weight[i].is_finite() {
                    min_weight[i]
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn solve_with_simplex(
        &self,
        instance: &Instance,
        admissible: &AdmissibleSetIndex,
        previous: Option<&Arrangement>,
    ) -> Vec<Vec<(Vec<EventId>, f64)>> {
        let mut lp = LinearProgram::new();
        // One variable per (user, admissible set). A set the user held
        // verbatim in the previous arrangement flags its variable for the
        // warm-start crash basis: the previous (integral) solution is a
        // vertex of the new LP whenever it is still feasible, so starting
        // there leaves only the pivots the change requires.
        let mut at_upper: Vec<bool> = Vec::new();
        let mut var_of: Vec<Vec<usize>> = Vec::with_capacity(instance.num_users());
        let mut event_terms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.num_events()];
        for user_sets in admissible.iter() {
            let held = previous
                .filter(|prev| user_sets.user.index() < prev.num_users())
                .map(|prev| prev.events_of(user_sets.user));
            let mut ids = Vec::with_capacity(user_sets.sets.len());
            for set in &user_sets.sets {
                let weight = instance.set_weight(user_sets.user, set);
                let var = lp.add_var(weight, 1.0);
                at_upper.push(held.is_some_and(|h| !h.is_empty() && h == set.as_slice()));
                ids.push(var);
                for &v in set {
                    event_terms[v.index()].push((var, 1.0));
                }
            }
            var_of.push(ids);
        }
        // Constraint (2): per-user convexity.
        for (user_index, ids) in var_of.iter().enumerate() {
            if !ids.is_empty() {
                lp.add_le_constraint(ids.iter().map(|&v| (v, 1.0)), 1.0)
                    .unwrap_or_else(|e| panic!("user {user_index} convexity row: {e}"));
            }
        }
        // Constraint (3): per-event capacity.
        for (event_index, terms) in event_terms.into_iter().enumerate() {
            if !terms.is_empty() {
                let capacity = instance.event(EventId::new(event_index)).capacity as f64;
                lp.add_le_constraint(terms, capacity)
                    .unwrap_or_else(|e| panic!("event {event_index} capacity row: {e}"));
            }
        }
        let solver = SimplexSolver::default();
        let basis = igepa_lp::SimplexBasis::from_upper_flags(at_upper);
        let solution = if basis.is_empty() {
            solver.solve(&lp)
        } else {
            solver.solve_warm(&lp, &basis)
        }
        .expect("benchmark LP is always feasible (x = 0)");
        admissible
            .iter()
            .zip(var_of)
            .map(|(user_sets, ids)| {
                user_sets
                    .sets
                    .iter()
                    .zip(ids)
                    .map(|(set, var)| (set.clone(), solution.values[var].clamp(0.0, 1.0)))
                    .collect()
            })
            .collect()
    }

    fn solve_with_packing(
        &self,
        instance: &Instance,
        admissible: &AdmissibleSetIndex,
        rounds: usize,
        event_prices: Option<&[f64]>,
    ) -> Vec<Vec<(Vec<EventId>, f64)>> {
        // Global rows: one per event with positive capacity.
        let mut row_of_event: Vec<Option<usize>> = vec![None; instance.num_events()];
        let mut capacities = Vec::new();
        for event in instance.events() {
            if event.capacity > 0 {
                row_of_event[event.id.index()] = Some(capacities.len());
                capacities.push(event.capacity as f64);
            }
        }
        let mut problem = BlockPackingProblem::new(capacities);
        for user_sets in admissible.iter() {
            let columns: Vec<PackingColumn> = user_sets
                .sets
                .iter()
                .filter(|set| set.iter().all(|v| row_of_event[v.index()].is_some()))
                .map(|set| PackingColumn {
                    profit: instance.set_weight(user_sets.user, set),
                    usage: set
                        .iter()
                        .map(|v| (row_of_event[v.index()].expect("filtered"), 1.0))
                        .collect(),
                })
                .collect();
            problem.add_block(PackingBlock { columns });
        }
        let solver = BlockPackingSolver::with_rounds(rounds);
        let solution = match event_prices {
            Some(prices) => {
                // Re-index the per-event prices onto the problem's rows
                // (events with zero capacity have no row).
                let row_prices: Vec<f64> = row_of_event
                    .iter()
                    .enumerate()
                    .filter_map(|(event, row)| {
                        row.map(|_| prices.get(event).copied().unwrap_or(0.0))
                    })
                    .collect();
                solver.solve_warm(&problem, &row_prices)
            }
            None => solver.solve(&problem),
        }
        .expect("block packing LP is well-formed");
        admissible
            .iter()
            .enumerate()
            .map(|(block_index, user_sets)| {
                // Re-associate values with the (unfiltered) admissible sets.
                let mut out = Vec::with_capacity(user_sets.sets.len());
                let mut value_iter = solution.values[block_index].iter();
                for set in &user_sets.sets {
                    let usable = set.iter().all(|v| row_of_event[v.index()].is_some());
                    let value = if usable {
                        *value_iter.next().unwrap_or(&0.0)
                    } else {
                        0.0
                    };
                    out.push((set.clone(), value.clamp(0.0, 1.0)));
                }
                out
            })
            .collect()
    }
}

impl ArrangementAlgorithm for LpPacking {
    fn name(&self) -> &'static str {
        "LP-packing"
    }

    fn run_with_rng(&self, instance: &Instance, rng: &mut dyn RngCore) -> Arrangement {
        // Line 1: admissible sets and the benchmark LP.
        let admissible = AdmissibleSetIndex::build_with_limit(instance, self.admissible_set_limit)
            .expect("admissible-set enumeration within limit");
        let fractional = self.solve_benchmark_lp(instance, &admissible);
        self.round_fractional(instance, &fractional, rng)
    }
}

impl LpPacking {
    /// Warm-start re-solve used by the `WarmStart` impl: solve the LP
    /// seeded from `previous` — dual prices on the subgradient backend, a
    /// primal crash basis on the exact simplex backend — then round.
    pub(crate) fn resolve_from_previous(
        &self,
        instance: &Instance,
        previous: &Arrangement,
        rng: &mut dyn RngCore,
    ) -> Arrangement {
        let admissible = AdmissibleSetIndex::build_with_limit(instance, self.admissible_set_limit)
            .expect("admissible-set enumeration within limit");
        let fractional = self.solve_benchmark_lp_warm(instance, &admissible, Some(previous));
        self.round_fractional(instance, &fractional, rng)
    }

    /// Lines 2–8 of Algorithm 1: randomised rounding of the fractional
    /// solution plus the capacity repair step (shared by the cold and
    /// warm-start paths).
    fn round_fractional(
        &self,
        instance: &Instance,
        fractional: &[Vec<(Vec<EventId>, f64)>],
        rng: &mut dyn RngCore,
    ) -> Arrangement {
        use rand::Rng;

        // Lines 2–3: sample one admissible set per user with probability
        // α · x*_{u,S}.
        let alpha = self.alpha.clamp(0.0, 1.0);
        let mut sampled: Vec<Vec<EventId>> = Vec::with_capacity(instance.num_users());
        for per_user in fractional {
            let mut threshold: f64 = rng.gen_range(0.0..1.0);
            let mut chosen: Vec<EventId> = Vec::new();
            for (set, value) in per_user {
                let p = alpha * value;
                if threshold < p {
                    chosen = set.clone();
                    break;
                }
                // lint:allow(no-raw-float-accum): seeded rounding walk over a fixed candidate order — deterministic for a given seed, and never part of served or replayed state
                threshold -= p;
            }
            sampled.push(chosen);
        }

        // Lines 4–7: repair event-capacity violations. The paper iterates
        // over users and removes an event from a user's sampled set whenever
        // keeping it would violate the event's capacity; the iteration order
        // is left unspecified. Because each event's over-subscription is
        // independent of the others (dropping `v` from one user never changes
        // another event's demand), we instantiate the order per event and
        // keep the `c_v` highest-weight sampled pairs — the same repair rule,
        // with the removals charged to the least valuable pairs first.
        let mut takers: Vec<Vec<UserId>> = vec![Vec::new(); instance.num_events()];
        for (user_index, set) in sampled.iter().enumerate() {
            for &v in set {
                takers[v.index()].push(UserId::new(user_index));
            }
        }
        for (event_index, users) in takers.iter_mut().enumerate() {
            let event_id = EventId::new(event_index);
            let capacity = instance.event(event_id).capacity;
            if users.len() <= capacity {
                continue;
            }
            // Sort the over-subscribed event's takers by decreasing weight and
            // drop the tail from their sampled sets.
            users.sort_by(|&a, &b| {
                instance
                    .weight(event_id, b)
                    .partial_cmp(&instance.weight(event_id, a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &user in users.iter().skip(capacity) {
                sampled[user.index()].retain(|&v| v != event_id);
            }
        }

        // Line 8: assemble the arrangement.
        let mut arrangement = Arrangement::empty_for(instance);
        for (user_index, set) in sampled.into_iter().enumerate() {
            for v in set {
                arrangement.assign(v, UserId::new(user_index));
            }
        }
        arrangement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_core::{AttributeVector, ConstantInterest, PairSetConflict, TableInterest};

    /// Two events (capacity 1 each, conflicting), three users all bidding
    /// for both. A user can take at most one of the two events.
    fn conflicting_instance() -> Instance {
        let mut b = Instance::builder();
        let v0 = b.add_event(1, AttributeVector::empty());
        let v1 = b.add_event(1, AttributeVector::empty());
        for _ in 0..3 {
            b.add_user(2, AttributeVector::empty(), vec![v0, v1]);
        }
        b.interaction_scores(vec![0.9, 0.5, 0.1]);
        let mut sigma = PairSetConflict::new();
        sigma.add(v0, v1);
        b.build(&sigma, &ConstantInterest(0.8)).unwrap()
    }

    #[test]
    fn output_is_always_feasible() {
        let inst = conflicting_instance();
        for seed in 0..20 {
            let m = LpPacking::default().run_seeded(&inst, seed);
            assert!(
                m.is_feasible(&inst),
                "seed {seed} produced infeasible output"
            );
        }
    }

    #[test]
    fn respects_event_capacities_under_contention() {
        let inst = conflicting_instance();
        let m = LpPacking::default().run_seeded(&inst, 7);
        assert!(m.load_of(EventId::new(0)) <= 1);
        assert!(m.load_of(EventId::new(1)) <= 1);
        assert!(m.len() <= 2);
    }

    #[test]
    fn alpha_one_fills_uncontested_capacity() {
        // One event with plenty of room; every user should get it.
        let mut b = Instance::builder();
        let v0 = b.add_event(10, AttributeVector::empty());
        for _ in 0..4 {
            b.add_user(1, AttributeVector::empty(), vec![v0]);
        }
        b.interaction_scores(vec![0.2; 4]);
        let inst = b
            .build(&igepa_core::NeverConflict, &ConstantInterest(0.9))
            .unwrap();
        let m = LpPacking::default().run_seeded(&inst, 1);
        assert_eq!(m.len(), 4);
        assert!(m.is_feasible(&inst));
    }

    #[test]
    fn alpha_zero_assigns_nothing() {
        let inst = conflicting_instance();
        let m = LpPacking::with_alpha(0.0).run_seeded(&inst, 3);
        assert!(m.is_empty());
    }

    #[test]
    fn simplex_and_packing_backends_agree_on_lp_value() {
        let inst = conflicting_instance();
        let admissible = AdmissibleSetIndex::build(&inst).unwrap();
        let exact = LpPacking::with_backend(LpBackend::Simplex);
        let approx = LpPacking::with_backend(LpBackend::DualSubgradient { rounds: 3000 });
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
        let exact_value = value(&exact.solve_benchmark_lp(&inst, &admissible));
        let approx_value = value(&approx.solve_benchmark_lp(&inst, &admissible));
        assert!(approx_value <= exact_value + 1e-6);
        assert!(
            approx_value >= 0.85 * exact_value,
            "approx {approx_value} vs exact {exact_value}"
        );
    }

    #[test]
    fn lp_value_upper_bounds_any_feasible_arrangement() {
        // Lemma 1: the LP optimum dominates the utility of every feasible
        // arrangement, in particular the rounded one.
        let inst = conflicting_instance();
        let admissible = AdmissibleSetIndex::build(&inst).unwrap();
        let algo = LpPacking::with_backend(LpBackend::Simplex);
        let fractional = algo.solve_benchmark_lp(&inst, &admissible);
        let lp_value: f64 = fractional
            .iter()
            .enumerate()
            .map(|(u, sets)| {
                sets.iter()
                    .map(|(s, x)| x * inst.set_weight(UserId::new(u), s))
                    .sum::<f64>()
            })
            .sum();
        for seed in 0..10 {
            let m = algo.run_seeded(&inst, seed);
            assert!(m.utility(&inst).total <= lp_value + 1e-6);
        }
    }

    #[test]
    fn theoretical_alpha_is_half() {
        assert_eq!(LpPacking::theoretical().alpha, 0.5);
        assert_eq!(LpPacking::default().alpha, 1.0);
    }

    #[test]
    fn prefers_high_weight_users_when_capacity_is_scarce() {
        // One event of capacity 1; two users, one with far higher weight.
        let mut b = Instance::builder();
        let v0 = b.add_event(1, AttributeVector::empty());
        b.add_user(1, AttributeVector::empty(), vec![v0]);
        b.add_user(1, AttributeVector::empty(), vec![v0]);
        b.interaction_scores(vec![1.0, 0.0]);
        let mut interest = TableInterest::zeros(1, 2);
        interest.set(v0, UserId::new(0), 1.0);
        interest.set(v0, UserId::new(1), 0.05);
        let inst = b.build(&igepa_core::NeverConflict, &interest).unwrap();
        // The LP puts all capacity on user 0, so across seeds user 0 wins
        // essentially always.
        let algo = LpPacking::with_backend(LpBackend::Simplex);
        let mut user0_wins = 0;
        for seed in 0..20 {
            let m = algo.run_seeded(&inst, seed);
            if m.contains(v0, UserId::new(0)) {
                user0_wins += 1;
            }
        }
        assert!(user0_wins >= 18, "user 0 won only {user0_wins}/20 times");
    }
}
