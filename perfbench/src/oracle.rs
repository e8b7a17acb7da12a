//! The plaintext reference every session's labels are checked against.

use ppds_dbscan::index::{GridIndex, NeighborIndex};
use ppds_dbscan::{dbscan_with_external_density, Clustering, DbscanParams, Label, Point};
use std::collections::VecDeque;

/// Above this many own × external points the quadratic library reference
/// is replaced by [`external_density_grid`], which gives the same labels.
const QUADRATIC_LIMIT: usize = 1 << 22;

/// One party's horizontal reference (Algorithms 3 & 4): density counts
/// include `external`, expansion traverses only `own`.
pub fn external_density(own: &[Point], external: &[Point], params: DbscanParams) -> Clustering {
    if own.len().saturating_mul(own.len() + external.len()) <= QUADRATIC_LIMIT {
        dbscan_with_external_density(own, external, params)
    } else {
        external_density_grid(own, external, params)
    }
}

/// [`dbscan_with_external_density`] with both neighbourhood scans served
/// by a grid index: the same expansion in the same order, for inputs where
/// the linear scans would dominate a benchmark run.
pub fn external_density_grid(
    own: &[Point],
    external: &[Point],
    params: DbscanParams,
) -> Clustering {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unclassified,
        Noise,
        Cluster(usize),
    }
    if own.is_empty() {
        return Clustering {
            labels: Vec::new(),
            num_clusters: 0,
        };
    }
    let own_index = GridIndex::new(own, params.eps_sq);
    let external_index = (!external.is_empty()).then(|| GridIndex::new(external, params.eps_sq));
    let external_count = |q: &Point| {
        external_index
            .as_ref()
            .map_or(0, |i| i.region_query(q).len())
    };
    let is_core = |seeds: &[usize], q: &Point| seeds.len() + external_count(q) >= params.min_pts;

    let mut states = vec![State::Unclassified; own.len()];
    let mut next_cluster = 0usize;
    for i in 0..own.len() {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = own_index.region_query(&own[i]);
        if !is_core(&seeds, &own[i]) {
            states[i] = State::Noise;
            continue;
        }
        let cluster = next_cluster;
        next_cluster += 1;
        let mut queue = VecDeque::new();
        for &s in &seeds {
            states[s] = State::Cluster(cluster);
            if s != i {
                queue.push_back(s);
            }
        }
        while let Some(current) = queue.pop_front() {
            let result = own_index.region_query(&own[current]);
            if is_core(&result, &own[current]) {
                for &neighbor in &result {
                    match states[neighbor] {
                        State::Unclassified => {
                            queue.push_back(neighbor);
                            states[neighbor] = State::Cluster(cluster);
                        }
                        State::Noise => states[neighbor] = State::Cluster(cluster),
                        State::Cluster(_) => {}
                    }
                }
            }
        }
    }
    Clustering {
        labels: states
            .into_iter()
            .map(|s| match s {
                State::Cluster(id) => Label::Cluster(id),
                _ => Label::Noise,
            })
            .collect(),
        num_clusters: next_cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform(rng: &mut StdRng, n: usize, side: i64) -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(vec![rng.random_range(0..=side), rng.random_range(0..=side)]))
            .collect()
    }

    #[test]
    fn grid_reference_matches_the_library_reference() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let own = uniform(&mut rng, 150, 40);
            let external = uniform(&mut rng, 120, 40);
            for (eps_sq, min_pts) in [(8, 3), (20, 5), (2, 2)] {
                let params = DbscanParams { eps_sq, min_pts };
                assert_eq!(
                    external_density_grid(&own, &external, params),
                    dbscan_with_external_density(&own, &external, params),
                    "seed {seed}, eps² {eps_sq}, MinPts {min_pts}"
                );
            }
        }
    }

    #[test]
    fn grid_reference_handles_an_empty_external_set() {
        let own = uniform(&mut StdRng::seed_from_u64(3), 50, 10);
        let params = DbscanParams {
            eps_sq: 4,
            min_pts: 3,
        };
        assert_eq!(
            external_density_grid(&own, &[], params),
            dbscan_with_external_density(&own, &[], params)
        );
    }
}
