//! The adaptive migration *policy*: when to re-run the Figure 8 decision
//! graph against what a live table observed, and what it then asks for.
//!
//! The *mechanism* — switching a table to another scheme while it serves
//! — is [`DynamicTable::switch_to`](crate::DynamicTable::switch_to). This
//! module knows nothing about tables: its controller is a clock over
//! mutating operations, a memory of the last stats snapshot, and one
//! function from an observed window to a [`TableScheme`]. Whoever owns
//! it decides what to do with the verdict.

use crate::decision::Mutability;
use crate::{TableScheme, TableStats, WorkloadProfile};

/// Tuning for an adaptive table ([`crate::TableBuilder::adaptive`]).
/// The defaults re-evaluate every 4 Ki mutating ops and hold 16 Ki ops of
/// hysteresis after each switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Mutating operations between controller evaluations. A window must
    /// also hold 1 Ki lookups before it is judged, so at `r` lookups per
    /// mutating op a period shorter than `1024 / r` never yields a verdict.
    pub check_every: u64,
    /// Mutating operations after a switch during which the controller
    /// stays quiet (hysteresis against flapping on a boundary profile).
    pub cooldown: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { check_every: 4096, cooldown: 16_384 }
    }
}

/// Fewest lookups a window must hold before its miss ratio is trusted —
/// the controller does not switch without evidence.
const MIN_LOOKUPS: u64 = 1024;

/// A write ratio below this is treated as an *effectively static* phase:
/// the paper's static bands (where FP, chained and cuckoo live) apply to
/// a probe-dominated stream even though the table remains writable.
const STATIC_WRITE_RATIO: f64 = 0.05;

/// The controller's state between ticks.
#[derive(Debug, Default)]
pub(crate) struct AdaptiveController {
    /// Mutating ops since the clock last passed a `check_every` boundary.
    pub(crate) ops_since_check: u64,
    /// Mutating ops of post-switch hysteresis still to burn. The owner
    /// sets it to [`AdaptiveConfig::cooldown`] when a switch succeeds.
    pub(crate) cooldown_left: u64,
    /// Stats snapshot at the last evaluation; deltas against it form the
    /// observed workload profile.
    last_eval: TableStats,
}

impl AdaptiveController {
    /// Advance the clock by `ops` mutating operations and, if it passed
    /// a [`AdaptiveConfig::check_every`] boundary off cooldown with no
    /// drain in flight, judge the window since the last evaluation:
    /// `Some(scheme)` is the scheme the Figure 8 walk wants for a table
    /// of `2^bits` slots under the observed profile (it may be the one
    /// the table already is).
    ///
    /// Whole periods are burnt and the remainder carried, so `ops`
    /// single ticks and one tick of `ops` leave the clock — and the
    /// cooldown — at the same point. `observe` yields the table's stats
    /// snapshot and load factor; it is only called when a verdict is
    /// due, because the clock runs on every mutating operation and both
    /// cost more than it does.
    pub(crate) fn tick(
        &mut self,
        cfg: &AdaptiveConfig,
        ops: u64,
        draining: bool,
        observe: impl FnOnce() -> (TableStats, f64),
        bits: u8,
    ) -> Option<TableScheme> {
        let every = cfg.check_every.max(1);
        self.ops_since_check += ops;
        if self.ops_since_check < every {
            return None;
        }
        let ticks = self.ops_since_check - self.ops_since_check % every;
        self.ops_since_check %= every;
        if self.cooldown_left > 0 {
            self.cooldown_left = self.cooldown_left.saturating_sub(ticks);
            return None;
        }
        if draining {
            // Let the in-flight drain finish before re-deciding: a verdict
            // mid-drain would be judged on a half-moved table.
            return None;
        }
        let (snap, load_factor) = observe();
        let last = std::mem::replace(&mut self.last_eval, snap);
        let lookups = snap.lookups.saturating_sub(last.lookups);
        if lookups < MIN_LOOKUPS {
            return None;
        }
        // Relaxed counters can be read a few records apart: clamp so a
        // window never holds more misses than lookups.
        let misses = snap.misses.saturating_sub(last.misses).min(lookups);
        let writes = (snap.inserts + snap.deletes).saturating_sub(last.inserts + last.deletes);
        let write_ratio = writes as f64 / (writes + lookups) as f64;
        let mutability =
            if write_ratio < STATIC_WRITE_RATIO { Mutability::Static } else { Mutability::Dynamic };
        let observed = WorkloadProfile {
            load_factor,
            successful_ratio: 1.0 - misses as f64 / lookups as f64,
            write_ratio,
            dense_keys: false,
            mutability,
        };
        // The same graph walk `TableBuilder::for_profile` uses offline,
        // including its feasibility fallbacks (chained past its §4.5
        // budget falls to FP/RH) — here fed by *observed* signals.
        Some(crate::builder::profile_choice(&observed, bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const CFG: AdaptiveConfig = AdaptiveConfig { check_every: 8, cooldown: 64 };

    /// A cumulative snapshot: `lookups` and `misses` so far, `writes`
    /// inserts so far.
    fn snapshot(lookups: u64, misses: u64, writes: u64) -> TableStats {
        TableStats { lookups, misses, inserts: writes, ..TableStats::default() }
    }

    #[test]
    fn the_clock_carries_the_remainder_across_periods() {
        let mut c = AdaptiveController::default();
        let observed = Cell::new(0);
        let mut tick = |ops| {
            c.tick(
                &CFG,
                ops,
                false,
                || {
                    observed.set(observed.get() + 1);
                    (TableStats::default(), 0.5)
                },
                10,
            );
            c.ops_since_check
        };
        assert_eq!((tick(5), observed.get()), (5, 0), "below one period: the clock only");
        assert_eq!((tick(5), observed.get()), (2, 1), "10 ops = one period and 2 over");
        assert_eq!((tick(30), observed.get()), (0, 2), "several periods at once evaluate once");
    }

    #[test]
    fn cooldown_burns_whole_periods_only() {
        let mut c = AdaptiveController { cooldown_left: 100, ..Default::default() };
        let never = || -> (TableStats, f64) { panic!("no verdict is due on cooldown") };
        assert_eq!(c.tick(&CFG, 7, false, never, 10), None);
        assert_eq!((c.ops_since_check, c.cooldown_left), (7, 100), "no period passed yet");
        assert_eq!(c.tick(&CFG, 20, false, never, 10), None);
        assert_eq!((c.ops_since_check, c.cooldown_left), (3, 100 - 24), "27 ops = 3 periods + 3");
        assert_eq!(c.tick(&CFG, 1000, false, never, 10), None);
        assert_eq!(c.cooldown_left, 0, "the last period of a cooldown is burnt, not judged");
    }

    #[test]
    fn no_verdict_below_min_lookups_and_windows_are_deltas() {
        let mut c = AdaptiveController::default();
        // 1023 fresh lookups: one short of the evidence a verdict needs.
        assert_eq!(c.tick(&CFG, 8, false, || (snapshot(1023, 1000, 0), 0.6), 10), None);
        // 2046 cumulative is still only 1023 since the last evaluation.
        assert_eq!(c.tick(&CFG, 8, false, || (snapshot(2046, 2000, 0), 0.6), 10), None);
        assert!(c.tick(&CFG, 8, false, || (snapshot(3070, 3000, 0), 0.6), 10).is_some());
    }

    #[test]
    fn no_verdict_mid_drain() {
        let mut c = AdaptiveController::default();
        let never = || -> (TableStats, f64) { panic!("a drain in flight defers the verdict") };
        assert_eq!(c.tick(&CFG, 8, true, never, 10), None);
        assert_eq!(c.ops_since_check, 0, "the clock still ran");
    }

    #[test]
    fn a_miss_heavy_read_mostly_window_at_moderate_load_wants_fingerprints() {
        let mut c = AdaptiveController::default();
        // 97 % misses, 30 writes beside 2000 lookups (< 5 %), load 0.6.
        let verdict = c.tick(&CFG, 8, false, || (snapshot(2000, 1940, 30), 0.6), 10);
        assert_eq!(verdict, Some(TableScheme::Fingerprint));
    }

    #[test]
    fn the_miss_ratio_is_the_windows_not_the_lifetimes() {
        let mut c = AdaptiveController::default();
        // A long hit phase: 18 000 lookups, none missed.
        assert!(c.tick(&CFG, 8, false, || (snapshot(18_000, 0, 100), 0.6), 10).is_some());
        // Then a window of 2000 lookups that all miss, 30 writes beside
        // them, load 0.6: 90 % of lifetime lookups hit, none of this
        // window's did, and the verdict follows the window.
        let now = || (snapshot(20_000, 2000, 130), 0.6);
        assert_eq!(c.tick(&CFG, 8, false, now, 10), Some(TableScheme::Fingerprint));
        // A fresh controller's first window is the whole lifetime, and
        // the lifetime profile answers otherwise.
        let lifetime = AdaptiveController::default().tick(&CFG, 8, false, now, 10);
        assert_ne!(lifetime.expect("20 000 lookups are evidence"), TableScheme::Fingerprint);
    }
}
