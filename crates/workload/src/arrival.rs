//! Arrival-time assignment.
//!
//! §7.1: "We assume that the user arrival pattern is a Poisson process.  We further
//! vary the rate in the Poisson process to vary the query-per-second."  Two
//! granularities are provided:
//!
//! * [`ArrivalGranularity::PerUser`] (the default, matching the paper's description):
//!   a user arrival releases all of that user's requests at once — the recommendation
//!   system fans out one request per candidate post the moment the user shows up.
//! * [`ArrivalGranularity::PerRequest`]: every request arrives independently.  This
//!   interleaves requests of different users in the queue, which is the situation the
//!   scheduling example of §6.2 (requests A/B/C/D with pairwise-shared prefixes)
//!   describes, and is used by the scheduling-ablation experiments.

use serde::{Deserialize, Serialize};
use simcore::{PoissonProcess, SimRng, SimTime};

use crate::dataset::{Dataset, RequestTemplate};

/// How arrivals are grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalGranularity {
    /// All requests of a user arrive at the user's (Poisson) arrival instant.
    PerUser,
    /// Every request arrives at its own (Poisson) arrival instant, in shuffled order.
    PerRequest,
}

/// A request template stamped with its arrival time.
#[derive(Debug, Clone)]
pub struct ArrivalPattern {
    /// The arriving request.
    pub template: RequestTemplate,
    /// When the request reaches the serving system.
    pub arrival: SimTime,
}

/// Assigns Poisson arrival times at [`ArrivalGranularity::PerUser`] granularity such
/// that the *request* rate averages `qps` queries per second.
///
/// The returned vector is sorted by arrival time.
///
/// # Panics
///
/// Panics if `qps` is not strictly positive.
pub fn assign_poisson_arrivals(
    dataset: &Dataset,
    qps: f64,
    rng: &mut SimRng,
) -> Vec<ArrivalPattern> {
    assign_poisson_arrivals_with(dataset, qps, ArrivalGranularity::PerUser, rng)
}

/// Assigns Poisson arrival times at the chosen granularity such that the request rate
/// averages `qps` queries per second.  The returned vector is sorted by arrival time.
///
/// # Panics
///
/// Panics if `qps` is not strictly positive.
pub fn assign_poisson_arrivals_with(
    dataset: &Dataset,
    qps: f64,
    granularity: ArrivalGranularity,
    rng: &mut SimRng,
) -> Vec<ArrivalPattern> {
    assert!(qps > 0.0, "QPS must be positive");
    if dataset.is_empty() {
        return Vec::new();
    }
    let mut arrivals = match granularity {
        ArrivalGranularity::PerUser => per_user(dataset, qps, rng),
        ArrivalGranularity::PerRequest => per_request(dataset, qps, rng),
    };
    arrivals.sort_by_key(|a| a.arrival);
    arrivals
}

fn per_user(dataset: &Dataset, qps: f64, rng: &mut SimRng) -> Vec<ArrivalPattern> {
    let mut user_ids: Vec<u64> = dataset.requests().iter().map(|r| r.user_id).collect();
    user_ids.sort_unstable();
    user_ids.dedup();
    rng.shuffle(&mut user_ids);

    let requests_per_user = dataset.len() as f64 / user_ids.len() as f64;
    let user_rate = qps / requests_per_user;
    let mut process = PoissonProcess::new(user_rate, rng.derive(0xA11A));

    let mut arrivals = Vec::with_capacity(dataset.len());
    for user in user_ids {
        let at = process.next_arrival();
        for template in dataset.requests().iter().filter(|r| r.user_id == user) {
            arrivals.push(ArrivalPattern {
                template: template.clone(),
                arrival: at,
            });
        }
    }
    arrivals
}

fn per_request(dataset: &Dataset, qps: f64, rng: &mut SimRng) -> Vec<ArrivalPattern> {
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    rng.shuffle(&mut order);
    let mut process = PoissonProcess::new(qps, rng.derive(0xB22B));
    order
        .into_iter()
        .map(|idx| ArrivalPattern {
            template: dataset.requests()[idx].clone(),
            arrival: process.next_arrival(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PostRecommendationSpec, WorkloadKind};

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    #[test]
    fn every_request_gets_an_arrival() {
        let ds = Dataset::generate(WorkloadKind::PostRecommendation, &mut rng());
        let arrivals = assign_poisson_arrivals(&ds, 10.0, &mut rng());
        assert_eq!(arrivals.len(), ds.len());
        for pair in arrivals.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }

    #[test]
    fn per_user_requests_arrive_together() {
        let ds = Dataset::generate(WorkloadKind::PostRecommendation, &mut rng());
        let arrivals = assign_poisson_arrivals(&ds, 10.0, &mut rng());
        let user = arrivals[0].template.user_id;
        let times: Vec<SimTime> = arrivals
            .iter()
            .filter(|a| a.template.user_id == user)
            .map(|a| a.arrival)
            .collect();
        assert_eq!(times.len(), 50);
        assert!(times.iter().all(|&t| t == times[0]));
    }

    #[test]
    fn per_request_arrivals_interleave_users() {
        let ds = Dataset::generate(WorkloadKind::PostRecommendation, &mut rng());
        let arrivals =
            assign_poisson_arrivals_with(&ds, 10.0, ArrivalGranularity::PerRequest, &mut rng());
        assert_eq!(arrivals.len(), ds.len());
        // Distinct arrival times (with probability 1) and users interleaved.
        let first_20_users: Vec<u64> = arrivals[..20].iter().map(|a| a.template.user_id).collect();
        let mut unique = first_20_users.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() > 3,
            "per-request arrivals should mix users early on, saw {unique:?}"
        );
        for pair in arrivals.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }

    #[test]
    fn average_rate_tracks_requested_qps() {
        // Use a larger synthetic population for a tighter statistical check.
        let spec = PostRecommendationSpec {
            num_users: 200,
            posts_per_user: 5,
            post_tokens: 10,
            profile_mean_tokens: 100.0,
            profile_std_tokens: 10.0,
            profile_min_tokens: 50,
            profile_max_tokens: 200,
        };
        let ds = Dataset::post_recommendation(&spec, &mut rng());
        let qps = 20.0;
        for granularity in [ArrivalGranularity::PerUser, ArrivalGranularity::PerRequest] {
            let arrivals = assign_poisson_arrivals_with(&ds, qps, granularity, &mut rng());
            let span = arrivals.last().unwrap().arrival.as_secs_f64();
            let observed = arrivals.len() as f64 / span;
            assert!(
                (observed - qps).abs() / qps < 0.25,
                "{granularity:?}: observed {observed:.1} qps vs requested {qps}"
            );
        }
    }

    #[test]
    fn different_seeds_shuffle_user_order() {
        let ds = Dataset::generate(WorkloadKind::CreditVerification, &mut rng());
        let a = assign_poisson_arrivals(&ds, 1.0, &mut SimRng::seed_from_u64(1));
        let b = assign_poisson_arrivals(&ds, 1.0, &mut SimRng::seed_from_u64(2));
        let order_a: Vec<u64> = a.iter().map(|x| x.template.user_id).collect();
        let order_b: Vec<u64> = b.iter().map(|x| x.template.user_id).collect();
        assert_ne!(order_a, order_b);
    }

    #[test]
    #[should_panic(expected = "QPS must be positive")]
    fn zero_qps_panics() {
        let ds = Dataset::generate(WorkloadKind::CreditVerification, &mut rng());
        assign_poisson_arrivals(&ds, 0.0, &mut rng());
    }
}
