//! Property-based tests for the foundation types.

use proptest::prelude::*;
use sip_common::bytes::StateTracker;
use sip_common::{hash_key, Date, Row, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; NaN is excluded by workload invariants.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        (-100_000i32..100_000).prop_map(|d| Value::Date(Date::from_days(d))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn date_round_trips(days in -200_000i32..200_000) {
        let d = Date::from_days(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd).unwrap().days(), days);
        // Display → parse round trip.
        prop_assert_eq!(Date::parse(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn date_ordering_matches_day_count(a in -50_000i32..50_000, b in -50_000i32..50_000) {
        let da = Date::from_days(a);
        let db = Date::from_days(b);
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.sql_cmp(&b), b.sql_cmp(&a).reverse());
        // Transitivity (spot form): if a<=b and b<=c then a<=c.
        if a.sql_cmp(&b) != Ordering::Greater && b.sql_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.sql_cmp(&c), Ordering::Greater);
        }
        // Eq ⇒ equal hashes.
        if a == b {
            prop_assert_eq!(a.hash64(), b.hash64());
        }
    }

    #[test]
    fn row_key_hash_equals_hash_key(vals in prop::collection::vec(arb_value(), 1..6)) {
        let row = Row::new(vals.clone());
        let positions: Vec<usize> = (0..vals.len()).collect();
        prop_assert_eq!(row.key_hash(&positions), hash_key(&vals));
    }

    #[test]
    fn projection_preserves_values(
        vals in prop::collection::vec(arb_value(), 1..8),
        idx in prop::collection::vec(0usize..8, 0..8),
    ) {
        let row = Row::new(vals.clone());
        let idx: Vec<usize> = idx.into_iter().filter(|&i| i < vals.len()).collect();
        let projected = row.project(&idx);
        for (out_pos, &src) in idx.iter().enumerate() {
            prop_assert_eq!(projected.get(out_pos), &vals[src]);
        }
    }

    #[test]
    fn state_tracker_balanced_ops_return_to_zero(deltas in prop::collection::vec(1i64..10_000, 0..50)) {
        let t = StateTracker::new();
        for &d in &deltas {
            t.add(d);
        }
        let max_sum: i64 = deltas.iter().sum();
        prop_assert!(t.peak() <= max_sum.max(0) as u64);
        for &d in &deltas {
            t.add(-d);
        }
        prop_assert_eq!(t.current(), 0);
    }
}
