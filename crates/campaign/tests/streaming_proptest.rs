//! Property tests for the streaming result path: over arbitrary cell
//! permutations and arbitrary shard splits, the fold renders the same
//! summary and surface bytes as the canonical-order fold, the latency
//! sketch's merge is associative and commutative, and its quantiles stay
//! within the documented relative error of the exact nearest-rank values.

use nvariant_campaign::{
    CampaignReport, LatencyHistogram, ShardCursor, ShardMerger, StreamingAggregator,
    SyntheticSweep, QUANTILE_RELATIVE_ERROR,
};
use proptest::prelude::*;
use std::time::Duration;

/// A small synthetic matrix: `60 × replicates` judged cells, cheap enough
/// for many proptest cases but exercising every label and verdict path.
fn sweep(replicates: usize) -> SyntheticSweep {
    SyntheticSweep::new(replicates)
}

/// The reference: one worker folding every cell in canonical order.
fn canonical_order_fold(sweep: &SyntheticSweep) -> StreamingAggregator {
    sweep.run_streamed(1)
}

/// A seed-derived pseudo-random vector (the vendored proptest has no
/// collection strategies): `len` draws from an LCG stepped off `seed`,
/// mapped into `1..=max`.
fn derived_values(seed: u64, len: usize, max: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) % max + 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Folding the cells in ANY order yields byte-identical summary and
    /// surface output to the canonical-order fold: the aggregator state is
    /// order-independent by construction.
    #[test]
    fn any_fold_order_matches_the_canonical_order_fold(
        replicates in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sweep = sweep(replicates);
        let total = sweep.cell_count();
        // A seed-derived permutation of the linear cell indices.
        let mut order: Vec<usize> = (0..total).collect();
        let mut state = seed | 1;
        for i in (1..total).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            #[allow(clippy::cast_possible_truncation)]
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut aggregator = StreamingAggregator::new(
            sweep.name.clone(),
            sweep.base_seed,
            sweep.plan_hash(),
            sweep.shape,
        );
        for linear in order {
            let cell = sweep.cell(linear);
            aggregator.add_wall(cell.wall);
            aggregator.absorb(&cell);
        }
        let reference = canonical_order_fold(&sweep);
        prop_assert_eq!(aggregator.render_summary(), reference.render_summary());
        prop_assert_eq!(aggregator.render_surface(), reference.render_surface());
    }

    /// Splitting the cells across ANY shard assignment (each shard keeps
    /// canonical order internally; shards may be empty), serializing each
    /// shard through the interchange codec, and k-way stream-merging the
    /// cursors yields byte-identical summary and surface output to the
    /// canonical-order fold — and so does the in-memory
    /// `CampaignReport::merge` adapter over the same shards.
    #[test]
    fn any_shard_split_streams_back_the_canonical_order_fold(
        replicates in 1usize..3,
        assignment_seed in any::<u64>(),
    ) {
        let sweep = sweep(replicates);
        let total = sweep.cell_count();
        let shards = 4;
        let assignment = derived_values(assignment_seed, total, shards as u64);
        let mut shard_cells: Vec<Vec<_>> = vec![Vec::new(); shards];
        for (linear, assigned) in assignment.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let shard = (assigned - 1) as usize;
            shard_cells[shard].push(sweep.cell(linear));
        }
        let shards: Vec<CampaignReport> = shard_cells
            .into_iter()
            .map(|cells| {
                let wall = cells.iter().map(|c| c.wall).sum();
                CampaignReport::new(
                    sweep.name.clone(),
                    sweep.base_seed,
                    sweep.plan_hash(),
                    sweep.shape,
                    1,
                    cells,
                    wall,
                )
            })
            .collect();
        let shard_texts: Vec<String> = shards.iter().map(CampaignReport::to_shard_text).collect();
        let cursors: Vec<_> = shard_texts
            .iter()
            .map(|text| ShardCursor::new(text.as_bytes()).expect("own shard text parses"))
            .collect();
        let mut merger = ShardMerger::new(cursors).expect("own shards merge");
        let mut aggregator = StreamingAggregator::from_header(merger.header());
        while let Some(cell) = merger.next_cell().expect("merge streams cleanly") {
            aggregator.absorb(&cell);
        }
        prop_assert_eq!(aggregator.cells(), total);
        let reference = canonical_order_fold(&sweep);
        prop_assert_eq!(aggregator.render_summary(), reference.render_summary());
        prop_assert_eq!(aggregator.render_surface(), reference.render_surface());
        let merged = CampaignReport::merge(shards).expect("own shards merge in memory");
        prop_assert_eq!(merged.render_summary(), reference.render_summary());
    }

    /// Histogram merge is exact: associative, commutative, and equal to
    /// recording the union directly — order and grouping never matter.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        seed_c in any::<u64>(),
        len_a in 0usize..80,
        len_b in 0usize..80,
        len_c in 0usize..80,
    ) {
        let a = derived_values(seed_a, len_a, 5_000_000_000);
        let b = derived_values(seed_b, len_b, 5_000_000_000);
        let c = derived_values(seed_c, len_c, 5_000_000_000);
        let histogram = |values: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in values {
                h.record(Duration::from_nanos(v));
            }
            h
        };
        let (ha, hb, hc) = (histogram(&a), histogram(&b), histogram(&c));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Exactness: any grouping equals recording the union directly.
        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &histogram(&union));
    }

    /// Sketch quantiles never overestimate and stay within the documented
    /// relative error of the exact nearest-rank values.
    #[test]
    fn quantiles_stay_within_the_documented_error_bound(
        seed in any::<u64>(),
        len in 1usize..200,
    ) {
        let values = derived_values(seed, len, 10_000_000_000);
        let mut histogram = LatencyHistogram::new();
        for &v in &values {
            histogram.record(Duration::from_nanos(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for percent in [50u64, 95, 99] {
            let sketch = histogram
                .quantile(percent)
                .expect("non-empty histogram")
                .as_nanos();
            #[allow(clippy::cast_possible_truncation)]
            let rank = ((sorted.len() as u64 * percent).div_ceil(100).max(1) as usize) - 1;
            let exact = u128::from(sorted[rank.min(sorted.len() - 1)]);
            prop_assert!(
                sketch <= exact,
                "p{percent}: sketch {sketch} overestimates exact {exact}"
            );
            #[allow(clippy::cast_precision_loss)]
            let error = (exact - sketch) as f64 / exact as f64;
            prop_assert!(
                error < QUANTILE_RELATIVE_ERROR,
                "p{percent}: sketch {sketch} vs exact {exact} error {error}"
            );
        }
    }
}
