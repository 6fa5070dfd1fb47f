//! Time representation used throughout the workspace.
//!
//! The paper measures with nanosecond precision (RDTSC through JNI) while
//! all task parameters in its tables are expressed in milliseconds. We keep
//! a single signed 64-bit nanosecond representation for both instants and
//! spans, which covers ±292 years — far beyond any hyperperiod we simulate —
//! while making millisecond-level literals exact.
//!
//! Two newtypes are provided:
//!
//! * [`Duration`] — a relative span (task cost, period, deadline, allowance);
//! * [`Instant`] — an absolute point on the virtual timeline.
//!
//! Arithmetic is checked in debug builds (standard Rust overflow semantics)
//! and the types deliberately do not implement `Mul<Instant>`-style
//! operations that have no physical meaning.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: i64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: i64 = 1_000_000;
/// Nanoseconds per second.
pub const NANOS_PER_SEC: i64 = 1_000_000_000;

/// A relative span of virtual time, in nanoseconds.
///
/// `Duration` is signed: analysis code subtracts spans (e.g. slack =
/// deadline − response time) and negative slack is meaningful ("by how much
/// did we miss").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// One nanosecond, the representation's resolution.
    pub const NANO: Duration = Duration(1);
    /// Largest representable span.
    pub const MAX: Duration = Duration(i64::MAX);

    /// Span from raw nanoseconds.
    #[inline]
    pub const fn nanos(ns: i64) -> Self {
        Duration(ns)
    }

    /// Span from microseconds.
    #[inline]
    pub const fn micros(us: i64) -> Self {
        Duration(us * NANOS_PER_MICRO)
    }

    /// Span from milliseconds (the unit of every table in the paper).
    #[inline]
    pub const fn millis(ms: i64) -> Self {
        Duration(ms * NANOS_PER_MILLI)
    }

    /// Span from whole seconds.
    #[inline]
    pub const fn secs(s: i64) -> Self {
        Duration(s * NANOS_PER_SEC)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Whole milliseconds (truncating), convenient when matching the paper's
    /// millisecond tables.
    #[inline]
    pub const fn as_millis(self) -> i64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Span as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `true` iff the span is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` iff the span is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` iff the span is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_add(rhs.0).map(Duration)
    }

    /// Checked subtraction, `None` on overflow.
    #[inline]
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[inline]
    pub fn checked_mul(self, k: i64) -> Option<Duration> {
        self.0.checked_mul(k).map(Duration)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a scalar.
    #[inline]
    pub fn saturating_mul(self, k: i64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// `⌈self / quantum⌉ · quantum` — round **up** to a multiple of
    /// `quantum`. This is how jRate's `PeriodicTimer` treats first-release
    /// values (quantum 10 ms), the artifact behind the 1/2/3 ms detector
    /// delays of the paper's Figure 4.
    ///
    /// Saturates at [`Duration::MAX`] when the rounded span does not fit.
    ///
    /// # Panics
    /// Panics if `quantum` is not strictly positive or `self` is negative.
    #[must_use]
    pub fn round_up_to(self, quantum: Duration) -> Duration {
        assert!(quantum.0 > 0, "quantum must be positive");
        assert!(self.0 >= 0, "cannot quantize a negative span");
        quantum.saturating_mul(self.div_ceil(quantum))
    }

    /// Round **down** to a multiple of `quantum`.
    ///
    /// # Panics
    /// Panics if `quantum` is not strictly positive or `self` is negative.
    #[must_use]
    pub fn round_down_to(self, quantum: Duration) -> Duration {
        assert!(quantum.0 > 0, "quantum must be positive");
        assert!(self.0 >= 0, "cannot quantize a negative span");
        Duration(self.0 / quantum.0 * quantum.0)
    }

    /// Number of whole periods of length `period` that fit in `self`,
    /// rounding up: `⌈self / period⌉`. This is the interference term of the
    /// response-time recurrence.
    ///
    /// # Panics
    /// Panics if `period` is not strictly positive or `self` is negative.
    pub fn div_ceil(self, period: Duration) -> i64 {
        assert!(period.0 > 0, "period must be positive");
        assert!(self.0 >= 0, "div_ceil of a negative span");
        // `q + (r != 0)`, not `(self + period - 1) / period`: the sum
        // wraps for spans near `i64::MAX`.
        self.0 / period.0 + i64::from(self.0 % period.0 != 0)
    }

    /// Largest of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Smallest of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Duration, hi: Duration) -> Duration {
        Duration(self.0.clamp(lo.0, hi.0))
    }

    /// Absolute value of the span.
    #[inline]
    pub fn abs(self) -> Duration {
        Duration(self.0.abs())
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, k: i64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Mul<Duration> for i64 {
    type Output = Duration;
    #[inline]
    fn mul(self, d: Duration) -> Duration {
        Duration(self * d.0)
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, k: i64) -> Duration {
        Duration(self.0 / k)
    }
}

impl Div<Duration> for Duration {
    type Output = i64;
    /// Truncating ratio of two spans.
    #[inline]
    fn div(self, rhs: Duration) -> i64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Duration {
    /// Human-oriented rendering: picks ms when the value is an exact number
    /// of milliseconds (the common case for paper workloads), otherwise
    /// prints fractional milliseconds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % NANOS_PER_MILLI == 0 {
            write!(f, "{}ms", self.0 / NANOS_PER_MILLI)
        } else {
            write!(f, "{:.6}ms", self.as_millis_f64())
        }
    }
}

impl std::str::FromStr for Duration {
    type Err = String;

    /// Parse a duration token: an integer with an optional `ns`/`us`/
    /// `ms`/`s` suffix; a bare integer means milliseconds (the unit of
    /// every table in the paper). This is the single duration grammar
    /// shared by task files, campaign specs, query batches and CLI
    /// flags; their callers call `str::parse::<Duration>` directly.
    fn from_str(token: &str) -> Result<Self, Self::Err> {
        let (digits, mult) = if let Some(v) = token.strip_suffix("ns") {
            (v, 1i64)
        } else if let Some(v) = token.strip_suffix("us") {
            (v, NANOS_PER_MICRO)
        } else if let Some(v) = token.strip_suffix("ms") {
            (v, NANOS_PER_MILLI)
        } else if let Some(v) = token.strip_suffix('s') {
            (v, NANOS_PER_SEC)
        } else {
            (token, NANOS_PER_MILLI)
        };
        let n: i64 = digits
            .parse()
            .map_err(|e| format!("bad duration `{token}`: {e}"))?;
        n.checked_mul(mult)
            .map(Duration::nanos)
            .ok_or_else(|| format!("duration `{token}` overflows"))
    }
}

/// An absolute instant on the virtual timeline, in nanoseconds since the
/// simulation epoch (system start, the paper's `t = 0`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(i64);

impl Instant {
    /// The simulation epoch.
    pub const EPOCH: Instant = Instant(0);
    /// Largest representable instant (used as "never" sentinel).
    pub const FAR_FUTURE: Instant = Instant(i64::MAX);

    /// Instant from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: i64) -> Self {
        Instant(ns)
    }

    /// Instant from milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Instant(ms * NANOS_PER_MILLI)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    #[inline]
    pub const fn as_millis(self) -> i64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Fractional milliseconds since the epoch.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Span from the epoch to this instant.
    #[inline]
    pub const fn since_epoch(self) -> Duration {
        Duration(self.0)
    }

    /// Signed span from `earlier` to `self`.
    #[inline]
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0 - earlier.0)
    }

    /// Checked addition of a span.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d.as_nanos()).map(Instant)
    }

    /// Saturating addition of a span.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.as_nanos()))
    }

    /// Later of two instants.
    #[inline]
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }

    /// Earlier of two instants.
    #[inline]
    pub fn min(self, other: Instant) -> Instant {
        Instant(self.0.min(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d.as_nanos())
    }
}

impl AddAssign<Duration> for Instant {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.as_nanos();
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, d: Duration) -> Instant {
        Instant(self.0 - d.as_nanos())
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Instant) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % NANOS_PER_MILLI == 0 {
            write!(f, "t={}ms", self.0 / NANOS_PER_MILLI)
        } else {
            write!(f, "t={:.6}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::millis(1), Duration::nanos(NANOS_PER_MILLI));
        assert_eq!(Duration::micros(1_000), Duration::millis(1));
        assert_eq!(Duration::secs(1), Duration::millis(1_000));
        assert_eq!(Instant::from_millis(3).as_nanos(), 3 * NANOS_PER_MILLI);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Duration::millis(29);
        let b = Duration::millis(11);
        assert_eq!(a + b, Duration::millis(40));
        assert_eq!(a - b, Duration::millis(18));
        assert_eq!(a * 3, Duration::millis(87));
        assert_eq!(3 * a, Duration::millis(87));
        assert_eq!(Duration::millis(90) / Duration::millis(29), 3);
        assert_eq!((b - a).abs(), Duration::millis(18));
        assert!((b - a).is_negative());
    }

    #[test]
    fn instant_duration_interplay() {
        let t0 = Instant::from_millis(1000);
        let t1 = t0 + Duration::millis(29);
        assert_eq!(t1.as_millis(), 1029);
        assert_eq!(t1 - t0, Duration::millis(29));
        assert_eq!(t1.duration_since(t0), Duration::millis(29));
        assert_eq!(t0.duration_since(t1), -Duration::millis(29));
    }

    #[test]
    fn round_up_matches_jrate_quantization() {
        // The paper's Figure 4 artifact: WCRTs of 29/58/87 ms quantized to a
        // 10 ms timer grid give releases at 30/60/90 ms.
        let q = Duration::millis(10);
        assert_eq!(Duration::millis(29).round_up_to(q), Duration::millis(30));
        assert_eq!(Duration::millis(58).round_up_to(q), Duration::millis(60));
        assert_eq!(Duration::millis(87).round_up_to(q), Duration::millis(90));
        // Exact multiples are unchanged: the Figure 6 stop offset of 40 ms.
        assert_eq!(Duration::millis(40).round_up_to(q), Duration::millis(40));
        assert_eq!(Duration::ZERO.round_up_to(q), Duration::ZERO);
    }

    #[test]
    fn round_down() {
        let q = Duration::millis(10);
        assert_eq!(Duration::millis(29).round_down_to(q), Duration::millis(20));
        assert_eq!(Duration::millis(30).round_down_to(q), Duration::millis(30));
    }

    #[test]
    fn div_ceil_interference_term() {
        let t = Duration::millis(29);
        assert_eq!(t.div_ceil(Duration::millis(200)), 1);
        assert_eq!(Duration::millis(200).div_ceil(Duration::millis(200)), 1);
        assert_eq!(Duration::millis(201).div_ceil(Duration::millis(200)), 2);
        assert_eq!(Duration::ZERO.div_ceil(Duration::millis(200)), 0);
    }

    #[test]
    fn div_ceil_does_not_wrap_near_i64_max() {
        let max = i64::MAX;
        // i64::MAX = 7 · 1317624576693539401, exactly.
        assert_eq!(Duration::MAX.div_ceil(Duration::nanos(7)), max / 7);
        assert_eq!(Duration::MAX.div_ceil(Duration::nanos(2)), max / 2 + 1);
        assert_eq!(Duration::MAX.div_ceil(Duration::nanos(3)), max / 3 + 1);
        assert_eq!(Duration::MAX.div_ceil(Duration::NANO), max);
        assert_eq!(
            Duration::nanos(max - 1).div_ceil(Duration::nanos(2)),
            max / 2
        );
        assert_eq!(Duration::MAX.div_ceil(Duration::MAX), 1);
        // Agrees with the textbook form wherever that form cannot wrap.
        for n in 0..50 {
            for p in 1..12 {
                assert_eq!(
                    Duration::nanos(n).div_ceil(Duration::nanos(p)),
                    (n + p - 1) / p
                );
            }
        }
    }

    #[test]
    fn round_up_saturates_near_i64_max() {
        let max = i64::MAX;
        let q = Duration::millis(10);
        // The largest multiple of 10 ms still fits; one nanosecond past
        // it does not, and saturates instead of wrapping negative.
        let top = Duration::nanos(max / q.as_nanos() * q.as_nanos());
        assert_eq!(top.round_up_to(q), top);
        assert_eq!((top + Duration::NANO).round_up_to(q), Duration::MAX);
        assert_eq!(Duration::MAX.round_up_to(q), Duration::MAX);
        assert_eq!(Duration::MAX.round_up_to(Duration::NANO), Duration::MAX);
        assert_eq!(Duration::MAX.round_up_to(Duration::MAX), Duration::MAX);
        // i64::MAX = 7 · 1317624576693539401, exactly.
        assert_eq!(Duration::MAX.round_up_to(Duration::nanos(7)), Duration::MAX);
        // Agrees with the textbook form wherever that form cannot wrap.
        for n in 0..50 {
            for p in 1..12 {
                assert_eq!(
                    Duration::nanos(n).round_up_to(Duration::nanos(p)),
                    Duration::nanos((n + p - 1) / p * p)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn round_up_rejects_zero_quantum() {
        let _ = Duration::millis(1).round_up_to(Duration::ZERO);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Duration::MAX.checked_add(Duration::NANO), None);
        assert_eq!(
            Duration::millis(1).checked_add(Duration::millis(1)),
            Some(Duration::millis(2))
        );
        assert_eq!(Duration::MAX.checked_mul(2), None);
        assert_eq!(Instant::FAR_FUTURE.checked_add(Duration::NANO), None);
        assert_eq!(
            Duration::MAX.saturating_add(Duration::millis(1)),
            Duration::MAX
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Duration::millis(29).to_string(), "29ms");
        assert_eq!(Duration::nanos(1_500_000).to_string(), "1.500000ms");
        assert_eq!(Instant::from_millis(1020).to_string(), "t=1020ms");
    }

    #[test]
    fn sum_and_ordering() {
        let total: Duration = [29, 29, 29].iter().map(|&m| Duration::millis(m)).sum();
        assert_eq!(total, Duration::millis(87));
        assert!(Duration::millis(1) < Duration::millis(2));
        assert_eq!(
            Duration::millis(5).clamp(Duration::ZERO, Duration::millis(3)),
            Duration::millis(3)
        );
    }
}
