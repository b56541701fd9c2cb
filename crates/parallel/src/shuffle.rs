//! Shuffle planning: when (and how) a join whose inputs are partitioned on
//! different attribute classes should repartition instead of collapsing the
//! parallel region.
//!
//! The expander in [`crate::partition`] tracks, per partitioned stream, the
//! set of attributes whose values provably obey the partition-hash
//! invariant (`hash(value) % dop == partition` for every row). A join can
//! run per-partition exactly when one of its key pairs is *co-aligned* —
//! the left attribute holds the invariant on the left stream and the right
//! attribute on the right stream; matching rows then share a hash and
//! therefore a partition. Anything else needs rows to move: a shuffle mesh
//! on one side, both sides, or — when the cost model says moving the rows
//! costs more than the serial join saves — the old merge-then-serial
//! fallback.

use sip_common::{AttrId, FxHashSet};
use sip_optimizer::CostModel;

/// Expansion knobs for [`crate::partition_plan_cfg`].
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allow mid-plan repartitioning through shuffle meshes. With this off
    /// the expander reproduces the PR-1 behaviour: non-co-keyed joins end
    /// the parallel region (merge + serial operator).
    pub shuffle: bool,
    /// Fan-in of the tree-structured merge tail: every point where `dop`
    /// partition streams rejoin a serial section (the root, partial
    /// aggregates, partial dedups) becomes a tree of `Merge` operators
    /// with at most this many inputs each, spreading the per-batch merge
    /// work (select, counters, emit) over `~dop / fanin` threads instead
    /// of funnelling all partitions through one serial `Merge`.
    ///
    /// `0` = auto: flat (single merge) up to dop 4, binary tree above.
    /// Values `>= 2` force that fan-in at every dop; `1` is rejected (a
    /// 1-ary merge tree cannot terminate).
    pub merge_fanin: u32,
    /// Cost model pricing repartition against the serial fallback.
    pub cost: CostModel,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            shuffle: true,
            merge_fanin: 0,
            cost: CostModel::default(),
        }
    }
}

/// One equated key pair of a join, resolved to both sides' layouts.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyPair {
    /// Key position in the left input's layout.
    pub l_pos: usize,
    /// Key position in the right input's layout.
    pub r_pos: usize,
    /// Attribute at `l_pos`.
    pub l_attr: AttrId,
    /// Attribute at `r_pos`.
    pub r_attr: AttrId,
}

/// How to make a join's two partitioned inputs co-partitioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Alignment {
    /// Key pair `pair` is already co-aligned: run the join per partition.
    Colocated { pair: usize },
    /// The left stream holds the invariant on `pair`; hash-repartition the
    /// right stream on the pair's right key.
    ShuffleRight { pair: usize },
    /// Mirror image of `ShuffleRight`.
    ShuffleLeft { pair: usize },
    /// Neither side is aligned on any pair: repartition both on `pair`.
    ShuffleBoth { pair: usize },
    /// Repartitioning does not pay (or is disabled): merge the partitions
    /// and run this operator serially.
    Serial,
}

/// Source-plan cardinality estimates for one join, used to price moved
/// rows against the serial fallback.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JoinEst {
    /// Estimated left-input rows.
    pub left: f64,
    /// Estimated right-input rows.
    pub right: f64,
    /// Estimated output rows.
    pub out: f64,
    /// Base-table share of the join key's most frequent value (0 when
    /// unknown): the hot fraction a hash repartition cannot split, feeding
    /// [`CostModel::skew_factor`] so serial-vs-shuffle decisions stop
    /// assuming uniform keys.
    pub hot_frac: f64,
}

impl JoinEst {
    /// Uniform-keys estimate (no skew information).
    #[cfg(test)]
    pub(crate) fn uniform(left: f64, right: f64, out: f64) -> JoinEst {
        JoinEst {
            left,
            right,
            out,
            hot_frac: 0.0,
        }
    }
}

/// Decide how a `(partitioned, partitioned)` join becomes co-partitioned.
///
/// Moved rows are priced with [`CostModel::repartition_wins`] against the
/// serial fallback.
pub(crate) fn plan_join_alignment(
    pairs: &[KeyPair],
    l_class: &FxHashSet<AttrId>,
    r_class: &FxHashSet<AttrId>,
    est: JoinEst,
    dop: u32,
    cfg: &PartitionConfig,
) -> Alignment {
    let (l_rows, r_rows, out_rows) = (est.left, est.right, est.out);
    if let Some(pair) = pairs
        .iter()
        .position(|p| l_class.contains(&p.l_attr) && r_class.contains(&p.r_attr))
    {
        return Alignment::Colocated { pair };
    }
    if !cfg.shuffle || pairs.is_empty() {
        return Alignment::Serial;
    }
    // Moved rows are priced with the key's hot fraction folded in: a
    // shuffle cannot split a hot key below one worker, so the parallel
    // join's critical path inflates by the skew factor.
    let skew = cfg.cost.skew_factor(est.hot_frac, dop);
    let wins = |moved: f64| {
        cfg.cost
            .repartition_wins_skewed(l_rows, r_rows, out_rows, moved, dop, skew)
    };
    if let Some(pair) = pairs.iter().position(|p| l_class.contains(&p.l_attr)) {
        if wins(r_rows) {
            return Alignment::ShuffleRight { pair };
        }
        return Alignment::Serial;
    }
    if let Some(pair) = pairs.iter().position(|p| r_class.contains(&p.r_attr)) {
        if wins(l_rows) {
            return Alignment::ShuffleLeft { pair };
        }
        return Alignment::Serial;
    }
    if wins(l_rows + r_rows) {
        return Alignment::ShuffleBoth { pair: 0 };
    }
    Alignment::Serial
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::AttrId;

    fn pair(l: u32, r: u32) -> KeyPair {
        KeyPair {
            l_pos: 0,
            r_pos: 0,
            l_attr: AttrId(l),
            r_attr: AttrId(r),
        }
    }

    fn set(ids: &[u32]) -> FxHashSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn colocated_beats_everything() {
        let a = plan_join_alignment(
            &[pair(1, 2), pair(3, 4)],
            &set(&[3]),
            &set(&[4]),
            JoinEst::uniform(1e6, 1e6, 1e6),
            4,
            &PartitionConfig::default(),
        );
        assert_eq!(a, Alignment::Colocated { pair: 1 });
    }

    #[test]
    fn one_sided_alignment_shuffles_the_other_side() {
        let cfg = PartitionConfig::default();
        let a = plan_join_alignment(
            &[pair(1, 2)],
            &set(&[1]),
            &set(&[9]),
            JoinEst::uniform(1e5, 1e5, 1e5),
            4,
            &cfg,
        );
        assert_eq!(a, Alignment::ShuffleRight { pair: 0 });
        let a = plan_join_alignment(
            &[pair(1, 2)],
            &set(&[9]),
            &set(&[2]),
            JoinEst::uniform(1e5, 1e5, 1e5),
            4,
            &cfg,
        );
        assert_eq!(a, Alignment::ShuffleLeft { pair: 0 });
    }

    #[test]
    fn no_alignment_shuffles_both() {
        let a = plan_join_alignment(
            &[pair(1, 2)],
            &set(&[7]),
            &set(&[9]),
            JoinEst::uniform(1e5, 1e5, 1e5),
            4,
            &PartitionConfig::default(),
        );
        assert_eq!(a, Alignment::ShuffleBoth { pair: 0 });
    }

    #[test]
    fn disabled_or_unprofitable_shuffle_goes_serial() {
        let mut cfg = PartitionConfig {
            shuffle: false,
            ..Default::default()
        };
        let a = plan_join_alignment(
            &[pair(1, 2)],
            &set(&[1]),
            &set(&[9]),
            JoinEst::uniform(1e5, 1e5, 1e5),
            4,
            &cfg,
        );
        assert_eq!(a, Alignment::Serial);
        // Shuffling priced off the table: a mesh hop so expensive the
        // serial join always wins.
        cfg.shuffle = true;
        cfg.cost.cpu_shuffle_row = 1e9;
        let a = plan_join_alignment(
            &[pair(1, 2)],
            &set(&[1]),
            &set(&[9]),
            JoinEst::uniform(1e5, 1e5, 1e5),
            4,
            &cfg,
        );
        assert_eq!(a, Alignment::Serial);
    }
}
