//! Migration differential oracle: every live cross-scheme migration
//! state, element-wise against two independent models.
//!
//! For every source scheme in [`tests_common::all_schemes`] × every
//! [`TableScheme`] target, a table is filled, told to [`switch_to`] the
//! target with a drain step of **1** (so the stream passes through every
//! intermediate drain state), and then driven through a mixed
//! insert/replace/delete/lookup stream alongside:
//!
//! * a `HashMap` model — ground truth for contents; and
//! * a **stop-the-world twin**: the same source table, same fill, whose
//!   switch ran under [`GrowthPolicy::AllAtOnce`], filling the new
//!   generation at once — what the incremental drain must be observably
//!   indistinguishable from.
//!
//! After *every* operation all three agree on every key of the universe
//! (present and absent) and on `len()`. The stream keeps mutating until
//! the drain completes, so deletes and replacements land on keys still
//! sitting in the draining generation; a tail of post-drain operations
//! checks the retired generation left no residue.
//!
//! The mid-migration *snapshot* angle of the acceptance criterion lives
//! in `crates/durable` (`snapshot_mid_scheme_switch_is_complete_and_
//! recovers`); the sharded × optimistic sweeps live in
//! `proptest_invariants`.
//!
//! [`switch_to`]: DynamicTable::switch_to

mod tests_common;

use rand::{rngs::StdRng, Rng, SeedableRng};
use seven_dim_hashing::prelude::*;
use std::collections::HashMap;

/// 2^9 slots; the 200-key universe tops out at ~39% load so every
/// source scheme (CuckooH2 included) holds it comfortably.
const BITS: u8 = 9;

/// Distinct keys live at the switch point.
const UNIVERSE: u64 = 200;

/// Post-drain operations: the retired generation must be truly gone.
const TAIL_OPS: usize = 120;

fn key_of(i: u64) -> u64 {
    // Odd multiplier keeps keys distinct; +1 avoids the reserved 0.
    i.wrapping_mul(0x9E37_79B9) + 1
}

fn dynamic(scheme: TableScheme, growth: GrowthPolicy) -> DynamicTable<TableBuilder> {
    // High threshold: growth stays out of the way, the switch is the
    // only migration in play and keeps the same capacity.
    DynamicTable::with_policy(TableBuilder::new(scheme), BITS, 0x517C4, 0.95, growth)
}

/// Element-wise equality of table, stop-the-world twin, and model over
/// the whole key universe (probed keys included, so absent keys are
/// checked absent), plus `len()`.
fn check_state(
    incr: &DynamicTable<TableBuilder>,
    aao: &DynamicTable<TableBuilder>,
    model: &HashMap<u64, u64>,
    context: &str,
) {
    for i in 0..UNIVERSE {
        let key = key_of(i);
        let want = model.get(&key).copied();
        assert_eq!(incr.lookup(key), want, "{context}: incremental lookup({key})");
        assert_eq!(aao.lookup(key), want, "{context}: stop-the-world lookup({key})");
    }
    assert_eq!(incr.len(), model.len(), "{context}: incremental len");
    assert_eq!(aao.len(), model.len(), "{context}: stop-the-world len");
}

fn run_cell(scheme: TableScheme, target: TableScheme, seed: u64) {
    let mut incr = dynamic(scheme, GrowthPolicy::Incremental { step: 1 });
    let mut aao = dynamic(scheme, GrowthPolicy::AllAtOnce);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);

    for i in 0..UNIVERSE {
        let (key, value) = (key_of(i), i * 3 + 1);
        incr.insert(key, value).unwrap();
        aao.insert(key, value).unwrap();
        model.insert(key, value);
    }

    let context = format!("{} -> {target:?}", incr.inner().display_name());
    let switched = incr.switch_to(target).unwrap();
    assert_eq!(
        aao.switch_to(target).unwrap(),
        switched,
        "{context}: twins disagree on switch feasibility"
    );
    if !switched {
        // Same scheme already (e.g. LP -> LP): nothing to migrate.
        assert!(!incr.is_migrating(), "{context}: refused switch left a migration");
        return;
    }
    assert!(!aao.is_migrating(), "{context}: AllAtOnce switch must finish in one step");
    check_state(&incr, &aao, &model, &format!("{context}: right after switch"));

    // Mixed stream until the step-1 drain finishes, checking after every
    // operation — i.e. at every intermediate drain state. Deletes and
    // replacements repeatedly hit keys still in the draining generation.
    let mut step = 0usize;
    while incr.is_migrating() || step < TAIL_OPS {
        let still_migrating = incr.is_migrating();
        let key = key_of(rng.gen_range(0..UNIVERSE + 20)); // ~10% absent keys
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let value = rng.gen::<u64>() >> 1;
                let expect = match model.insert(key, value) {
                    None => InsertOutcome::Inserted,
                    Some(old) => InsertOutcome::Replaced(old),
                };
                assert_eq!(incr.insert(key, value), Ok(expect), "{context}: insert step {step}");
                assert_eq!(aao.insert(key, value), Ok(expect), "{context}: insert step {step}");
            }
            5..=6 => {
                let expect = model.remove(&key);
                assert_eq!(incr.delete(key), expect, "{context}: delete step {step}");
                assert_eq!(aao.delete(key), expect, "{context}: delete step {step}");
            }
            _ => {
                let expect = model.get(&key).copied();
                assert_eq!(incr.lookup(key), expect, "{context}: lookup step {step}");
            }
        }
        check_state(&incr, &aao, &model, &format!("{context}: after step {step}"));
        if !still_migrating {
            step += 1; // the post-drain tail only starts counting once
        }
    }

    assert!(!incr.is_migrating(), "{context}: drain never finished");
    assert_eq!(incr.scheme_switches(), 1, "{context}: exactly one switch");
    assert_eq!(
        incr.inner().display_name(),
        aao.inner().display_name(),
        "{context}: twins landed on different schemes"
    );
}

#[test]
fn every_source_scheme_migrates_to_every_target_identically() {
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        for (j, target) in TableScheme::ALL.into_iter().enumerate() {
            run_cell(scheme, target, 0xC0FFEE + (i * TableScheme::ALL.len() + j) as u64);
        }
    }
}
