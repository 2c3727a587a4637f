//! SLO-aware admission control: the capacity governor.
//!
//! The paper's per-use-case service costs (FR ≪ CBR < SV, §4) are what
//! make class-based shedding meaningful: when the server is past
//! saturation, refusing one SV message buys roughly the headroom of
//! several CBR messages or many FR messages. The governor turns that
//! observation into a feedback loop over the one signal the
//! observability layer already maintains: the **windowed p99** of
//! `aon_request_duration_ns` (end-to-end service time), computed as the
//! delta between consecutive merged histogram snapshots — not the
//! all-time p99, which would never recover after one bad burst. (There is
//! no connection-level signal: the queue in front of the pool is the
//! kernel's listen backlog, which the server cannot read. With
//! observability off there is no signal at all and no sampler runs.)
//!
//! When the signal breaches its budget the governor escalates one
//! [`ShedLevel`]; each level sheds the most expensive remaining use-case
//! cost class (SV first, then CBR, then DPI/CRYPTO — FR is never shed).
//! Shed requests get `503 Service Unavailable` + `Retry-After`, which is
//! graceful degradation: the client learns to back off, instead of a
//! dropped socket or a response that arrives after it stopped caring.
//! Recovery is hysteretic: the governor steps *down* one level only
//! after [`GovernorConfig::recover_after`] consecutive healthy samples,
//! so a server oscillating around its capacity does not flap between
//! admitting and shedding every window.
//!
//! The decision core ([`GovernorCore`]) is a pure state machine —
//! sampled signals in, level transitions out — so the escalation and
//! hysteresis rules are unit-testable without threads or clocks. The
//! wrapper ([`Governor`]) holds the lock-free cells the data path reads:
//! one relaxed load per POST decides admission.
//!
//! This file is on the `aon-audit` cast-enforced list.

use aon_server::usecase::UseCase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Governor deployment parameters.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Master switch; off means every request is admitted and no sampler
    /// thread is spawned.
    pub enabled: bool,
    /// Budget for the windowed p99 of end-to-end service time. Breaching
    /// it escalates shedding one level.
    pub p99_budget: Duration,
    /// How often the sampler thread re-evaluates the signals.
    pub sample_interval: Duration,
    /// Consecutive healthy samples required before stepping shedding
    /// *down* one level (hysteresis).
    pub recover_after: u32,
    /// Minimum completed requests in a window for its p99 to count as a
    /// signal; quieter windows are treated as healthy.
    pub min_window_samples: u64,
    /// Degraded bypass mode: pin the level to [`ShedLevel::FrOnly`]
    /// regardless of the signals (operator override for incidents).
    pub fr_only: bool,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            enabled: true,
            // Generous defaults: loopback p99 is hundreds of microseconds,
            // so an unloaded server never breaches; a saturated one does.
            p99_budget: Duration::from_millis(250),
            sample_interval: Duration::from_millis(50),
            recover_after: 4,
            min_window_samples: 8,
            fr_only: false,
            retry_after_secs: 1,
        }
    }
}

/// How much load is currently being shed, in use-case cost-class order.
/// Each level sheds everything the previous one does plus the next most
/// expensive class; FR (network-bound, the paper's cheapest class) is
/// never shed — that is the degraded "front door stays up" guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedLevel {
    /// All classes admitted.
    None,
    /// SV (schema validation — the costliest class) shed.
    Sv,
    /// SV and CBR shed.
    SvCbr,
    /// Everything but FR shed (DPI/CRYPTO join the shed set): the
    /// FR-only bypass mode.
    FrOnly,
}

impl ShedLevel {
    /// All levels, escalation order.
    pub const ALL: [ShedLevel; 4] =
        [ShedLevel::None, ShedLevel::Sv, ShedLevel::SvCbr, ShedLevel::FrOnly];

    /// Stable numeric encoding (exported as the `aon_governor_shed_level`
    /// gauge; also the atomic cell encoding).
    pub fn as_u64(self) -> u64 {
        match self {
            ShedLevel::None => 0,
            ShedLevel::Sv => 1,
            ShedLevel::SvCbr => 2,
            ShedLevel::FrOnly => 3,
        }
    }

    /// Inverse of [`ShedLevel::as_u64`]; out-of-range values clamp to
    /// [`ShedLevel::FrOnly`] (fail toward shedding, never toward
    /// admitting).
    pub fn from_u64(v: u64) -> ShedLevel {
        match v {
            0 => ShedLevel::None,
            1 => ShedLevel::Sv,
            2 => ShedLevel::SvCbr,
            _ => ShedLevel::FrOnly,
        }
    }

    /// One step more shedding (saturates at [`ShedLevel::FrOnly`]).
    pub fn escalate(self) -> ShedLevel {
        ShedLevel::from_u64(self.as_u64().saturating_add(1))
    }

    /// One step less shedding (saturates at [`ShedLevel::None`]).
    pub fn relax(self) -> ShedLevel {
        ShedLevel::from_u64(self.as_u64().saturating_sub(1))
    }

    /// Does this level shed `uc`? The shed set grows by cost class:
    /// SV first, then CBR, then DPI/CRYPTO; FR is never shed.
    pub fn sheds(self, uc: UseCase) -> bool {
        match self {
            ShedLevel::None => false,
            ShedLevel::Sv => matches!(uc, UseCase::Sv),
            ShedLevel::SvCbr => matches!(uc, UseCase::Sv | UseCase::Cbr),
            ShedLevel::FrOnly => !matches!(uc, UseCase::Fr),
        }
    }

    /// Label for logs and the metrics help text.
    pub fn label(self) -> &'static str {
        match self {
            ShedLevel::None => "none",
            ShedLevel::Sv => "sv",
            ShedLevel::SvCbr => "sv+cbr",
            ShedLevel::FrOnly => "fr-only",
        }
    }
}

/// A level transition the core decided on: `(from, to)`.
pub type Transition = (ShedLevel, ShedLevel);

/// The pure governor state machine (it does not know the budget — only
/// whether a window breached it): breach → escalate immediately;
/// recover → relax one level only after `recover_after` consecutive
/// healthy windows. No clocks, no atomics — just the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorCore {
    level: ShedLevel,
    healthy_streak: u32,
}

impl GovernorCore {
    /// Start at `level` (normally [`ShedLevel::None`]).
    pub fn new(level: ShedLevel) -> GovernorCore {
        GovernorCore { level, healthy_streak: 0 }
    }

    /// Current level.
    pub fn level(&self) -> ShedLevel {
        self.level
    }

    /// Feed one window's verdict (`breached`: its p99 exceeded the budget,
    /// see [`Governor::breached`]); returns the transition, if any.
    ///
    /// A breach escalates immediately (overload costs goodput *now*) and
    /// zeroes the healthy streak. A healthy window extends the streak;
    /// at `recover_after` the level relaxes one step and the streak
    /// restarts — so full recovery from `FrOnly` takes
    /// `3 × recover_after` healthy windows, deliberately slower than the
    /// three windows escalation took.
    pub fn observe(&mut self, breached: bool, recover_after: u32) -> Option<Transition> {
        if breached {
            self.healthy_streak = 0;
            let from = self.level;
            let to = from.escalate();
            if to != from {
                self.level = to;
                return Some((from, to));
            }
            return None;
        }
        self.healthy_streak = self.healthy_streak.saturating_add(1);
        if self.healthy_streak >= recover_after.max(1) {
            self.healthy_streak = 0;
            let from = self.level;
            let to = from.relax();
            if to != from {
                self.level = to;
                return Some((from, to));
            }
        }
        None
    }
}

/// The shared half of the governor: the lock-free cell the request path
/// reads. The sampler thread (owned by the server) runs
/// the [`GovernorCore`] and publishes its level here.
#[derive(Debug)]
pub struct Governor {
    /// Deployment parameters (immutable after start).
    pub cfg: GovernorConfig,
    /// Published [`ShedLevel`] encoding; one relaxed load per POST.
    // audit:role(gauge): last-write-wins level published by the sampler;
    // Relaxed — admission may lag a transition by one in-flight request
    level: AtomicU64,
}

impl Governor {
    /// A governor publishing `cfg`'s initial level (pinned to
    /// [`ShedLevel::FrOnly`] in bypass mode, [`ShedLevel::None`]
    /// otherwise).
    pub fn new(cfg: GovernorConfig) -> Governor {
        let initial = if cfg.fr_only { ShedLevel::FrOnly } else { ShedLevel::None };
        Governor { cfg, level: AtomicU64::new(initial.as_u64()) }
    }

    /// The currently published level.
    pub fn level(&self) -> ShedLevel {
        ShedLevel::from_u64(self.level.load(Ordering::Relaxed))
    }

    /// Publish a new level (sampler thread only).
    pub fn publish(&self, level: ShedLevel) {
        self.level.store(level.as_u64(), Ordering::Relaxed);
    }

    /// Should this request be refused with 503 right now? Disabled
    /// governors admit everything.
    pub fn should_shed(&self, uc: UseCase) -> bool {
        self.cfg.enabled && self.level().sheds(uc)
    }

    /// Did this window's p99 exceed the budget, with enough samples for
    /// it to count as a signal?
    pub fn breached(&self, window_p99_ns: u64, window_samples: u64) -> bool {
        let budget_ns = u64::try_from(self.cfg.p99_budget.as_nanos()).unwrap_or(u64::MAX);
        window_samples >= self.cfg.min_window_samples.max(1) && window_p99_ns > budget_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEALTHY: bool = false;
    const BREACH: bool = true;

    #[test]
    fn shed_sets_grow_by_cost_class_and_never_include_fr() {
        for level in ShedLevel::ALL {
            assert!(!level.sheds(UseCase::Fr), "{level:?} must not shed FR");
        }
        assert!(!ShedLevel::None.sheds(UseCase::Sv));
        assert!(ShedLevel::Sv.sheds(UseCase::Sv));
        assert!(!ShedLevel::Sv.sheds(UseCase::Cbr));
        assert!(ShedLevel::SvCbr.sheds(UseCase::Cbr) && ShedLevel::SvCbr.sheds(UseCase::Sv));
        assert!(!ShedLevel::SvCbr.sheds(UseCase::Dpi));
        for uc in [UseCase::Sv, UseCase::Cbr, UseCase::Dpi, UseCase::Crypto] {
            assert!(ShedLevel::FrOnly.sheds(uc), "FrOnly must shed {uc:?}");
        }
        // Monotone: a higher level sheds a superset.
        for w in ShedLevel::ALL.windows(2) {
            for uc in UseCase::EXTENDED {
                assert!(!w[0].sheds(uc) || w[1].sheds(uc), "{:?} ⊄ {:?} at {uc:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn level_encoding_roundtrips_and_clamps_toward_shedding() {
        for level in ShedLevel::ALL {
            assert_eq!(ShedLevel::from_u64(level.as_u64()), level);
        }
        assert_eq!(ShedLevel::from_u64(17), ShedLevel::FrOnly);
        assert_eq!(ShedLevel::FrOnly.escalate(), ShedLevel::FrOnly, "escalate saturates");
        assert_eq!(ShedLevel::None.relax(), ShedLevel::None, "relax saturates");
    }

    #[test]
    fn breaches_escalate_immediately_in_cost_order() {
        let mut core = GovernorCore::new(ShedLevel::None);
        assert_eq!(core.observe(BREACH, 4), Some((ShedLevel::None, ShedLevel::Sv)));
        assert_eq!(core.observe(BREACH, 4), Some((ShedLevel::Sv, ShedLevel::SvCbr)));
        assert_eq!(core.observe(BREACH, 4), Some((ShedLevel::SvCbr, ShedLevel::FrOnly)));
        assert_eq!(core.observe(BREACH, 4), None, "already at the ceiling");
        assert_eq!(core.level(), ShedLevel::FrOnly);
    }

    #[test]
    fn recovery_needs_consecutive_healthy_windows() {
        let mut core = GovernorCore::new(ShedLevel::Sv);
        assert_eq!(core.observe(HEALTHY, 3), None);
        assert_eq!(core.observe(HEALTHY, 3), None);
        // A breach mid-recovery zeroes the streak (and escalates).
        assert_eq!(core.observe(BREACH, 3), Some((ShedLevel::Sv, ShedLevel::SvCbr)));
        assert_eq!(core.observe(HEALTHY, 3), None);
        assert_eq!(core.observe(HEALTHY, 3), None);
        assert_eq!(core.observe(HEALTHY, 3), Some((ShedLevel::SvCbr, ShedLevel::Sv)));
        // The streak restarts after each relax: full recovery is slow.
        assert_eq!(core.observe(HEALTHY, 3), None);
        assert_eq!(core.observe(HEALTHY, 3), None);
        assert_eq!(core.observe(HEALTHY, 3), Some((ShedLevel::Sv, ShedLevel::None)));
        assert_eq!(core.observe(HEALTHY, 3), None, "healthy at None stays put");
    }

    #[test]
    fn p99_over_budget_breaches_only_with_enough_samples() {
        let g = Governor::new(GovernorConfig {
            p99_budget: Duration::from_millis(1),
            min_window_samples: 2,
            ..GovernorConfig::default()
        });
        assert!(!g.breached(5_000_000, 1), "too few samples: not a signal");
        assert!(g.breached(5_000_000, 2));
        assert!(!g.breached(1_000_000, 100), "at budget is healthy");
    }

    #[test]
    fn governor_publishes_and_sheds_atomically() {
        let g = Governor::new(GovernorConfig::default());
        assert_eq!(g.level(), ShedLevel::None);
        assert!(!g.should_shed(UseCase::Sv));
        g.publish(ShedLevel::Sv);
        assert!(g.should_shed(UseCase::Sv));
        assert!(!g.should_shed(UseCase::Fr));
        // Disabled governors admit everything no matter the level.
        let off = Governor::new(GovernorConfig { enabled: false, ..GovernorConfig::default() });
        off.publish(ShedLevel::FrOnly);
        assert!(!off.should_shed(UseCase::Sv));
    }

    #[test]
    fn fr_only_mode_starts_pinned() {
        let g = Governor::new(GovernorConfig { fr_only: true, ..GovernorConfig::default() });
        assert_eq!(g.level(), ShedLevel::FrOnly);
        assert!(g.should_shed(UseCase::Crypto));
        assert!(!g.should_shed(UseCase::Fr));
    }
}
