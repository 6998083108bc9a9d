//! Per-tenant admission control and the graceful-degradation ladder
//! (DESIGN.md §15).
//!
//! Three pieces, all deterministic and individually testable:
//!
//! * [`TokenBucket`] — per-tenant request quota. Out-of-quota traffic
//!   is refused with `429` *before* any model work; in-quota traffic is
//!   never shed by the quota. Integer micro-token arithmetic, so two
//!   buckets fed the same instants make identical decisions.
//! * [`CircuitBreaker`] — closed → open → half-open on consecutive
//!   failures (5xx, watchdog kills). The breaker never rejects a
//!   request: an open breaker feeds the ladder instead, so clients keep
//!   getting answers — cheaper, gap-bounded ones.
//! * [`degradation_level`] — the pure ladder policy: queue occupancy,
//!   breaker state, and remaining deadline budget map to a level, and
//!   [`strategy_cap`] maps the level to the most expensive search
//!   strategy still allowed. Level 1 caps at beam search, level 2 at
//!   local search. The cap only ever *downgrades*: a request already at
//!   or below the cap runs unchanged and is not stamped degraded.
//!
//! Every degraded answer is still bit-deterministic (the downgraded
//! strategy is itself deterministic) and carries its
//! [`gap_upper_bound`](hms_core::EngineStats::gap_upper_bound) on the
//! wire, so a client can always tell exact from approximate.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hms_core::SearchStrategy;

/// Micro-tokens per request — integer arithmetic keeps refill exact.
const MICRO: u64 = 1_000_000;

/// A deterministic token bucket: `burst` requests of headroom refilled
/// at `per_sec` requests per second.
#[derive(Debug)]
pub struct TokenBucket {
    burst_micro: u64,
    per_sec: u64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens_micro: u64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket created now. `burst` is clamped to at least 1 so a
    /// configured quota can never refuse *everything*.
    pub fn new(burst: u64, per_sec: u64) -> TokenBucket {
        TokenBucket::new_at(burst, per_sec, Instant::now())
    }

    /// Test constructor: a full bucket whose clock starts at `now`.
    pub fn new_at(burst: u64, per_sec: u64, now: Instant) -> TokenBucket {
        let burst_micro = burst.max(1).saturating_mul(MICRO);
        TokenBucket {
            burst_micro,
            per_sec,
            state: Mutex::new(BucketState {
                tokens_micro: burst_micro,
                last: now,
            }),
        }
    }

    /// Take one token if available. Equivalent to
    /// [`try_take_at`](Self::try_take_at) with the current instant.
    pub fn try_take(&self) -> bool {
        self.try_take_at(Instant::now())
    }

    /// Take one token as of `now`. Refill is computed from whole
    /// elapsed microseconds, so the decision sequence is a pure function
    /// of the instants handed in.
    pub fn try_take_at(&self, now: Instant) -> bool {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let elapsed_us = now.saturating_duration_since(s.last).as_micros() as u64;
        if elapsed_us > 0 {
            s.tokens_micro = s
                .tokens_micro
                .saturating_add(elapsed_us.saturating_mul(self.per_sec))
                .min(self.burst_micro);
            s.last = now;
        }
        if s.tokens_micro >= MICRO {
            s.tokens_micro -= MICRO;
            true
        } else {
            false
        }
    }
}

/// The breaker's observable state, in increasing severity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Cooldown elapsed: the next requests probe at a degraded level;
    /// one success closes the breaker, one failure re-opens it.
    HalfOpen,
    /// Tripped: every search is forced to the bottom of the ladder
    /// until the cooldown elapses.
    Open,
}

impl BreakerState {
    /// The `hms_breaker_state` gauge value.
    pub fn gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// A deterministic circuit breaker: `threshold` *consecutive* failures
/// open it, `cooldown` later it goes half-open, and the first
/// success/failure in half-open closes/re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
}

#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn state(&self) -> BreakerState {
        self.state_at(Instant::now())
    }

    pub fn state_at(&self, now: Instant) -> BreakerState {
        match self.lock().opened_at {
            None => BreakerState::Closed,
            Some(t) if now.saturating_duration_since(t) < self.cooldown => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// A request finished without a server-side failure.
    pub fn on_success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        s.opened_at = None;
    }

    /// A request failed server-side (5xx or watchdog kill).
    pub fn on_failure(&self) {
        self.on_failure_at(Instant::now());
    }

    pub fn on_failure_at(&self, now: Instant) {
        let mut s = self.lock();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let half_open = s
            .opened_at
            .is_some_and(|t| now.saturating_duration_since(t) >= self.cooldown);
        if half_open || s.consecutive_failures >= self.threshold {
            // A half-open probe failing re-opens immediately; otherwise
            // the consecutive-failure threshold trips the breaker.
            s.opened_at = Some(now);
        }
    }
}

/// The pure ladder policy. Inputs are the three pressure signals the
/// server can observe without touching a request:
///
/// * queue occupancy (`queue_len` of `queue_depth` pending cold jobs) —
///   ≥ 50% is level 1, ≥ 75% is level 2 (a zero-depth queue sheds at
///   accept and contributes nothing here);
/// * breaker state — half-open is level 1, open is level 2;
/// * remaining deadline budget (`remaining` of `budget`, already net of
///   any clock skew) — under half is level 1, under a quarter level 2.
///
/// The result is the *maximum* pressure across signals, so recovery is
/// monotone: each signal clearing can only lower the level.
pub fn degradation_level(
    queue_len: usize,
    queue_depth: usize,
    breaker: BreakerState,
    remaining: Option<Duration>,
    budget: Duration,
) -> u8 {
    let mut level = 0u8;
    if queue_depth > 0 {
        if queue_len.saturating_mul(4) >= queue_depth.saturating_mul(3) {
            level = level.max(2);
        } else if queue_len.saturating_mul(2) >= queue_depth {
            level = level.max(1);
        }
    }
    level = level.max(match breaker {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    });
    if let Some(rem) = remaining {
        if rem < budget / 4 {
            level = level.max(2);
        } else if rem < budget / 2 {
            level = level.max(1);
        }
    }
    level
}

/// The most expensive strategy each ladder level still allows. Level 0
/// allows everything (`None`).
pub fn strategy_cap(level: u8) -> Option<SearchStrategy> {
    match level {
        0 => None,
        1 => Some(SearchStrategy::Beam {
            width: SearchStrategy::DEFAULT_BEAM_WIDTH,
        }),
        _ => Some(SearchStrategy::LocalSearch {
            seed: SearchStrategy::DEFAULT_SEED,
        }),
    }
}

/// Relative cost rank used by [`apply_cap`] — higher is more expensive.
fn strategy_cost(s: &SearchStrategy) -> u8 {
    match s {
        SearchStrategy::Exhaustive => 3,
        SearchStrategy::SuccessiveHalving => 2,
        SearchStrategy::Beam { .. } => 1,
        SearchStrategy::LocalSearch { .. } => 0,
    }
}

/// Downgrade `requested` to `cap` when it is strictly more expensive.
/// Returns the strategy to actually run and whether the response must
/// be stamped `"degraded": true`. A request already at or below the cap
/// is untouched — its response stays byte-identical to normal operation.
pub fn apply_cap(requested: SearchStrategy, cap: Option<SearchStrategy>) -> (SearchStrategy, bool) {
    match cap {
        Some(c) if strategy_cost(&requested) > strategy_cost(&c) => (c, true),
        _ => (requested, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_decisions_are_a_pure_function_of_instants() {
        let t0 = Instant::now();
        let run = |instants: &[Duration]| -> Vec<bool> {
            let b = TokenBucket::new_at(2, 10, t0);
            instants.iter().map(|d| b.try_take_at(t0 + *d)).collect()
        };
        let schedule = [
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::from_millis(100), // refills one token at 10/s
            Duration::from_millis(100),
        ];
        let a = run(&schedule);
        assert_eq!(a, vec![true, true, false, true, false]);
        assert_eq!(a, run(&schedule), "same instants, same decisions");
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let t0 = Instant::now();
        let b = TokenBucket::new_at(2, 1000, t0);
        // A long idle period refills to the burst cap, not beyond.
        let late = t0 + Duration::from_secs(60);
        assert!(b.try_take_at(late));
        assert!(b.try_take_at(late));
        assert!(!b.try_take_at(late));
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let t0 = Instant::now();
        let cb = CircuitBreaker::new(3, Duration::from_millis(100));
        assert_eq!(cb.state_at(t0), BreakerState::Closed);
        cb.on_failure_at(t0);
        cb.on_failure_at(t0);
        assert_eq!(cb.state_at(t0), BreakerState::Closed);
        cb.on_failure_at(t0);
        assert_eq!(cb.state_at(t0), BreakerState::Open);
        // Cooldown elapses: half-open.
        let probe = t0 + Duration::from_millis(150);
        assert_eq!(cb.state_at(probe), BreakerState::HalfOpen);
        // A half-open failure re-opens for a fresh cooldown.
        cb.on_failure_at(probe);
        assert_eq!(cb.state_at(probe), BreakerState::Open);
        let probe2 = probe + Duration::from_millis(150);
        assert_eq!(cb.state_at(probe2), BreakerState::HalfOpen);
        // A half-open success closes it and resets the failure count.
        cb.on_success();
        assert_eq!(cb.state_at(probe2), BreakerState::Closed);
        cb.on_failure_at(probe2);
        assert_eq!(cb.state_at(probe2), BreakerState::Closed);
    }

    #[test]
    fn ladder_levels_follow_the_policy_table() {
        let budget = Duration::from_secs(10);
        let lvl = |q: usize, b, rem: Option<Duration>| degradation_level(q, 100, b, rem, budget);
        assert_eq!(lvl(0, BreakerState::Closed, None), 0);
        assert_eq!(lvl(49, BreakerState::Closed, None), 0);
        assert_eq!(lvl(50, BreakerState::Closed, None), 1);
        assert_eq!(lvl(75, BreakerState::Closed, None), 2);
        assert_eq!(lvl(0, BreakerState::HalfOpen, None), 1);
        assert_eq!(lvl(0, BreakerState::Open, None), 2);
        assert_eq!(
            lvl(0, BreakerState::Closed, Some(Duration::from_secs(6))),
            0
        );
        assert_eq!(
            lvl(0, BreakerState::Closed, Some(Duration::from_secs(4))),
            1
        );
        assert_eq!(
            lvl(0, BreakerState::Closed, Some(Duration::from_secs(2))),
            2
        );
        // Signals combine by max, so recovery is monotone.
        assert_eq!(lvl(50, BreakerState::Open, Some(Duration::from_secs(2))), 2);
        // A zero-depth queue contributes nothing (shedding handles it).
        assert_eq!(
            degradation_level(0, 0, BreakerState::Closed, None, budget),
            0
        );
    }

    #[test]
    fn caps_only_ever_downgrade() {
        use SearchStrategy as S;
        let beam = S::Beam {
            width: S::DEFAULT_BEAM_WIDTH,
        };
        let local = S::LocalSearch {
            seed: S::DEFAULT_SEED,
        };
        // Level 0: everything passes untouched.
        assert_eq!(
            apply_cap(S::Exhaustive, strategy_cap(0)),
            (S::Exhaustive, false)
        );
        // Level 1: expensive strategies cap at beam; beam/local pass.
        assert_eq!(apply_cap(S::Exhaustive, strategy_cap(1)), (beam, true));
        assert_eq!(
            apply_cap(S::Beam { width: 4 }, strategy_cap(1)),
            (S::Beam { width: 4 }, false)
        );
        assert_eq!(
            apply_cap(S::LocalSearch { seed: 7 }, strategy_cap(1)),
            (S::LocalSearch { seed: 7 }, false)
        );
        // Level 2: everything above local search caps at local search.
        assert_eq!(apply_cap(S::Exhaustive, strategy_cap(2)), (local, true));
        assert_eq!(
            apply_cap(S::Beam { width: 4 }, strategy_cap(2)),
            (local, true)
        );
        assert_eq!(
            apply_cap(S::LocalSearch { seed: 7 }, strategy_cap(2)),
            (S::LocalSearch { seed: 7 }, false)
        );
    }
}
