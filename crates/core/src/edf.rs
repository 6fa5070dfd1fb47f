//! EDF schedulability via processor-demand analysis.
//!
//! The exact test for preemptive EDF on a single processor (Baruah,
//! Rosier & Howell): a synchronous periodic set is schedulable iff for
//! every absolute deadline `t` inside the first busy period the demand
//! bound function
//!
//! ```text
//! h(t) = Σ_i max(0, ⌊(t − D_i)/T_i⌋ + 1) · C_i
//! ```
//!
//! stays at or below `t`. The deadlines are enumerated with Zhang &
//! Burns' QPA iteration (walking *down* from the last deadline below
//! the busy period, jumping to `h(t)` whenever `h(t) < t`), which
//! converges in a handful of demand evaluations instead of touching
//! every deadline.
//!
//! For task sets with release offsets the synchronous test is a
//! **sufficient** condition (the synchronous release is the worst
//! case), which is exactly the polarity the differential oracle and
//! admission control need: `feasible == true` certifies the run.
//!
//! The `skip` parameter supports the
//! [`SlackPolicy::ProtectOthers`](crate::allowance::SlackPolicy)
//! allowance searches: the skipped task's *demand* still counts (its
//! late jobs hold the earliest deadlines and hog the processor), but
//! its own deadlines are removed from the requirement.

use crate::task::TaskSet;
use crate::time::Duration;

/// Utilization slack below which the implicit-deadline fast path is not
/// trusted (floating-point guard; the exact QPA decides instead).
const UTIL_EPSILON: f64 = 1e-9;

/// Total utilization under an explicit cost vector.
fn utilization(set: &TaskSet, costs: &[Duration]) -> f64 {
    (0..set.len())
        .map(|r| costs[r].as_nanos() as f64 / set.by_rank(r).period.as_nanos() as f64)
        .sum()
}

/// Demand bound `h(t)`: execution released *and* due within any window
/// of length `t` of the synchronous pattern. Saturates at `i128::MAX`
/// (treated as "exceeds `t`" by the caller).
fn demand(set: &TaskSet, costs: &[Duration], t: i64) -> i128 {
    let mut h: i128 = 0;
    for (spec, cost) in set.tasks().iter().zip(costs) {
        let d = spec.deadline.as_nanos();
        if t < d {
            continue;
        }
        let jobs = (t - d) / spec.period.as_nanos() + 1;
        h += jobs as i128 * cost.as_nanos() as i128;
    }
    h
}

/// Length of the synchronous busy period under `costs`: the least fixed
/// point of `W(t) = Σ ⌈t/T_i⌉ C_i`. `None` when the iteration guard
/// trips or the workload saturates, the sum of the costs included
/// (callers treat both as infeasible — the conservative polarity).
fn busy_period(set: &TaskSet, costs: &[Duration], limit: u64) -> Option<i64> {
    let mut t = costs
        .iter()
        .try_fold(0i64, |sum, c| sum.checked_add(c.as_nanos()))?;
    if t <= 0 {
        return None;
    }
    for _ in 0..limit {
        let mut w: i128 = 0;
        for (spec, cost) in set.tasks().iter().zip(costs) {
            let p = spec.period.as_nanos();
            // ⌈t/p⌉ without forming t + p − 1, which wraps near i64::MAX.
            let jobs = t / p + i64::from(t % p != 0);
            w += jobs as i128 * cost.as_nanos() as i128;
        }
        if w > i64::MAX as i128 {
            return None;
        }
        let w = w as i64;
        if w == t {
            return Some(t);
        }
        t = w;
    }
    None
}

/// Largest absolute deadline of a non-skipped task strictly below
/// `bound` (synchronous pattern), or `None` when every considered
/// deadline is at or above `bound`.
fn last_deadline_below(set: &TaskSet, skip: Option<usize>, bound: i64) -> Option<i64> {
    let mut best: Option<i64> = None;
    for rank in 0..set.len() {
        if skip == Some(rank) {
            continue;
        }
        let spec = set.by_rank(rank);
        let d = spec.deadline.as_nanos();
        if d >= bound {
            continue;
        }
        let k = (bound - d - 1) / spec.period.as_nanos();
        let last = d + k * spec.period.as_nanos();
        best = Some(best.map_or(last, |b: i64| b.max(last)));
    }
    best
}

/// EDF schedulability of `set` under the effective `costs`, ignoring
/// release offsets (sufficient for offset sets). With `skip =
/// Some(rank)` that task's deadlines are exempt from the requirement
/// while its demand still interferes.
///
/// Returns `false` (never an error) on overload or when the busy-period
/// iteration guard trips — a "don't know" is reported as infeasible so
/// every caller stays sound.
pub fn feasible(set: &TaskSet, costs: &[Duration], skip: Option<usize>, limit: u64) -> bool {
    debug_assert_eq!(costs.len(), set.len());
    let u = utilization(set, costs);
    if u > 1.0 + UTIL_EPSILON {
        return false;
    }
    // Implicit/arbitrary-deadline fast path: with every D_i ≥ T_i,
    // h(t) ≤ U·t ≤ t for all t, so U ≤ 1 alone decides.
    let all_implicit = (0..set.len()).all(|r| {
        let spec = set.by_rank(r);
        spec.deadline >= spec.period
    });
    if all_implicit && u < 1.0 - UTIL_EPSILON {
        return true;
    }
    let Some(busy) = busy_period(set, costs, limit) else {
        return false;
    };
    let dmin = (0..set.len())
        .filter(|&r| skip != Some(r))
        .map(|r| set.by_rank(r).deadline.as_nanos())
        .min();
    let Some(dmin) = dmin else {
        return true; // nothing to protect
    };
    // QPA: walk down from the last considered deadline inside the busy
    // period; feasible iff the walk bottoms out at or below d_min
    // without ever finding h(t) > t.
    let Some(mut t) = last_deadline_below(set, skip, busy.saturating_add(1)) else {
        return true; // the busy period closes before any deadline
    };
    for _ in 0..limit {
        let h = demand(set, costs, t);
        if h > t as i128 {
            return false;
        }
        if h <= dmin as i128 {
            return true;
        }
        let h = h as i64;
        t = if h < t {
            h
        } else {
            match last_deadline_below(set, skip, t) {
                Some(prev) => prev,
                None => return true,
            }
        };
    }
    false // iteration guard: report "don't know" as infeasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::DEFAULT_ITERATION_LIMIT;
    use crate::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn declared(set: &TaskSet) -> Vec<Duration> {
        set.tasks().iter().map(|t| t.cost).collect()
    }

    fn check(set: &TaskSet) -> bool {
        feasible(set, &declared(set), None, DEFAULT_ITERATION_LIMIT)
    }

    #[test]
    fn busy_period_near_i64_max_does_not_wrap() {
        let big = Duration::nanos(i64::MAX);
        // One job of a task whose period and cost sit at the top of the
        // range: the busy period is the cost, with no ⌈t/T⌉ overflow.
        let cost = Duration::nanos(i64::MAX - 10);
        let one = TaskSet::from_specs(vec![TaskBuilder::new(1, 1, big, cost).build()]);
        assert_eq!(
            busy_period(&one, &[cost], DEFAULT_ITERATION_LIMIT),
            Some(i64::MAX - 10)
        );
        // Costs whose sum passes i64::MAX have no busy period to report.
        let half = Duration::nanos(i64::MAX / 2 + 1);
        let two = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, big, half).build(),
            TaskBuilder::new(2, 1, big, half).build(),
        ]);
        assert_eq!(
            busy_period(&two, &[half, half], DEFAULT_ITERATION_LIMIT),
            None
        );
        assert!(!check(&two));
    }

    #[test]
    fn implicit_deadlines_decide_by_utilization() {
        // U = 1.0 exactly, non-harmonic: EDF-feasible, FP (RM) is not.
        let full = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(2)).build(),
            TaskBuilder::new(2, 1, ms(6), ms(3)).build(),
        ]);
        assert!(check(&full));
        let over = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(2)).build(),
            TaskBuilder::new(2, 1, ms(6), ms(4)).build(),
        ]);
        assert!(!check(&over));
    }

    #[test]
    fn constrained_deadlines_use_the_demand_test() {
        // U = 0.75 but D1 = 1 < C1 + nothing: τ1 alone fits (C=1 ≤ D=1);
        // adding τ2's demand at t = 2 breaks it: h(2) = 1 + 2 > 2.
        let tight = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(1)).deadline(ms(1)).build(),
            TaskBuilder::new(2, 1, ms(4), ms(2)).deadline(ms(2)).build(),
        ]);
        assert!(!check(&tight));
        // Relaxing τ2's deadline to 3 ms makes every checkpoint pass:
        // h(1) = 1 ≤ 1, h(3) = 3 ≤ 3.
        let ok = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(1)).deadline(ms(1)).build(),
            TaskBuilder::new(2, 1, ms(4), ms(2)).deadline(ms(3)).build(),
        ]);
        assert!(check(&ok));
    }

    #[test]
    fn paper_table2_is_edf_feasible() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
        ]);
        assert!(check(&set));
        // Inflating every cost by 30 ms (beyond any slack: C1 = 59 > …)
        // h(70) = 59 ≤ 70, h(120) = 59+59+59 = 177 > 120: infeasible.
        let inflated: Vec<Duration> = declared(&set).iter().map(|&c| c + ms(30)).collect();
        assert!(!feasible(&set, &inflated, None, DEFAULT_ITERATION_LIMIT));
    }

    #[test]
    fn skip_exempts_only_the_skipped_deadlines() {
        // τ1's deadline is impossible (C = 2 > D = 1) but with τ1's
        // deadlines exempt the rest of the system still holds.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(10), ms(2))
                .deadline(ms(1))
                .build(),
            TaskBuilder::new(2, 1, ms(10), ms(2))
                .deadline(ms(5))
                .build(),
        ]);
        assert!(!feasible(
            &set,
            &declared(&set),
            None,
            DEFAULT_ITERATION_LIMIT
        ));
        assert!(feasible(
            &set,
            &declared(&set),
            Some(0),
            DEFAULT_ITERATION_LIMIT
        ));
        // The skipped task's demand still counts: grow it past what the
        // others can absorb and τ2 fails too (h(5) = 5 + 2 > 5).
        let mut costs = declared(&set);
        costs[0] = ms(5);
        assert!(!feasible(&set, &costs, Some(0), DEFAULT_ITERATION_LIMIT));
    }

    #[test]
    fn overload_is_infeasible_with_and_without_skip() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(10), ms(8)).build(),
            TaskBuilder::new(2, 1, ms(10), ms(8)).build(),
        ]);
        assert!(!feasible(
            &set,
            &declared(&set),
            None,
            DEFAULT_ITERATION_LIMIT
        ));
        assert!(!feasible(
            &set,
            &declared(&set),
            Some(0),
            DEFAULT_ITERATION_LIMIT
        ));
    }
}
