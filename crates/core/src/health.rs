//! Vertex health supervision.
//!
//! The paper positions Apollo as a *real-time* observer: the SCoRe DAG
//! must keep producing facts and insights even when individual monitor
//! hooks misbehave (a device driver wedges, procfs returns garbage, a
//! remote endpoint stops answering). This module supplies the per-vertex
//! state machine that makes a [`crate::vertex::FactVertex`] degrade
//! gracefully instead of poisoning the event loop:
//!
//! ```text
//!            failures ≥ degraded_after      failures ≥ quarantine_after
//!  Healthy ────────────────────────▶ Degraded ─────────────────────▶ Quarantined
//!     ▲                                 │                                 │
//!     │          one success            │    recovery_successes           │
//!     └─────────────────────────────────┴──── consecutive probe ◀─────────┘
//!                                             successes
//! ```
//!
//! * **Healthy** — polls run at the controller-chosen interval.
//! * **Degraded** — recent failures; polls back off exponentially
//!   (`backoff_base · 2^(failures−1)`, clamped to `backoff_cap`, with
//!   seeded jitter so a fleet of degraded vertices does not re-probe in
//!   lockstep).
//! * **Quarantined** — the hook is considered down; the vertex only
//!   re-probes every `probe_interval` and must succeed
//!   `recovery_successes` times in a row before being trusted again.
//!
//! All randomness is drawn from a per-monitor seeded generator, so runs
//! are bit-identical for a given [`SupervisorConfig::seed`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Supervision state of one vertex's monitor hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// The hook is answering normally.
    Healthy,
    /// Recent failures: polls back off but the hook is still tried.
    Degraded,
    /// The hook is considered down; only periodic re-probes run.
    Quarantined,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// Tunables of the per-vertex supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// A poll whose modelled `sample_cost` exceeds this is classified as
    /// a timeout even if the source eventually returned a value.
    pub poll_timeout: Duration,
    /// In-poll retries after a failed sample (0 = single attempt).
    pub max_retries: u32,
    /// Base of the exponential backoff applied while Degraded.
    pub backoff_base: Duration,
    /// Upper clamp on the backoff interval.
    pub backoff_cap: Duration,
    /// Jitter applied to backoff/probe intervals, as a fraction of the
    /// interval (0.2 → ±20%). Seeded, so still deterministic.
    pub jitter_frac: f64,
    /// Consecutive failures before Healthy → Degraded.
    pub degraded_after: u32,
    /// Consecutive failures before → Quarantined.
    pub quarantine_after: u32,
    /// Re-probe cadence while Quarantined.
    pub probe_interval: Duration,
    /// Consecutive probe successes required to leave Quarantined.
    pub recovery_successes: u32,
    /// Escalation multiplier applied to the probe cadence for repeat
    /// offenders: the k-th quarantine episode since the last served
    /// probation probes at `probe_interval · requarantine_backoff^(k−1)`
    /// (clamped to `backoff_cap`), so a source that heals and promptly
    /// relapses is probed less and less eagerly.
    pub requarantine_backoff: f64,
    /// Consecutive successful polls **while Healthy** that count as a
    /// full probation period: once served, the re-quarantine escalation
    /// resets, so an old incident stops taxing a source that has been
    /// solidly healthy since.
    pub probation_polls: u32,
    /// Seed of the jitter generator (mixed with the vertex name by the
    /// service so vertices desynchronize).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            poll_timeout: Duration::from_millis(250),
            max_retries: 2,
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(60),
            jitter_frac: 0.2,
            degraded_after: 1,
            quarantine_after: 4,
            probe_interval: Duration::from_secs(5),
            recovery_successes: 2,
            requarantine_backoff: 2.0,
            probation_polls: 8,
            seed: 0,
        }
    }
}

/// The supervision state machine for one vertex.
///
/// Not thread-safe on its own; callers wrap it in a mutex (the vertex
/// already serializes polls).
#[derive(Debug)]
pub struct HealthMonitor {
    config: SupervisorConfig,
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    total_failures: u64,
    recoveries: u64,
    /// Quarantine entries since the last served probation; drives the
    /// re-quarantine probe escalation and resets once the vertex has
    /// been Healthy for `probation_polls` consecutive successes.
    quarantine_episodes: u32,
    /// Consecutive successful polls while Healthy (zeroed by any
    /// failure); the probation clock.
    healthy_streak: u32,
    rng: StdRng,
}

impl HealthMonitor {
    /// A monitor starting Healthy.
    pub fn new(config: SupervisorConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            total_failures: 0,
            recoveries: 0,
            quarantine_episodes: 0,
            healthy_streak: 0,
            rng,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Consecutive failed polls (0 after any success).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Total failed polls over the monitor's lifetime.
    pub fn total_failures(&self) -> u64 {
        self.total_failures
    }

    /// Times the vertex returned from Quarantined to Healthy.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Quarantine episodes since the last served healthy probation (the
    /// current re-quarantine escalation level).
    pub fn quarantine_episodes(&self) -> u32 {
        self.quarantine_episodes
    }

    /// Record a successful poll. Returns the new state.
    pub fn on_success(&mut self) -> HealthState {
        self.consecutive_failures = 0;
        match self.state {
            HealthState::Healthy => {
                self.healthy_streak = self.healthy_streak.saturating_add(1);
            }
            HealthState::Degraded => {
                // One good sample clears a degraded hook: the failures
                // were transient.
                self.state = HealthState::Healthy;
                self.consecutive_successes = 0;
                self.healthy_streak = 1;
            }
            HealthState::Quarantined => {
                self.consecutive_successes += 1;
                if self.consecutive_successes >= self.config.recovery_successes {
                    self.state = HealthState::Healthy;
                    self.consecutive_successes = 0;
                    self.recoveries += 1;
                    self.healthy_streak = 1;
                }
            }
        }
        // A full healthy probation forgives past quarantine episodes, so
        // the escalated probe cadence doesn't tax the vertex forever.
        if self.state == HealthState::Healthy
            && self.quarantine_episodes > 0
            && self.healthy_streak >= self.config.probation_polls.max(1)
        {
            self.quarantine_episodes = 0;
        }
        self.state
    }

    /// Record a failed poll (all in-poll retries exhausted). Returns the
    /// new state.
    pub fn on_failure(&mut self) -> HealthState {
        self.total_failures += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.consecutive_successes = 0;
        self.healthy_streak = 0;
        // A failed probe keeps a quarantined vertex quarantined (it only
        // resets the recovery streak); states never downgrade on failure.
        if self.state != HealthState::Quarantined {
            if self.consecutive_failures >= self.config.quarantine_after {
                self.state = HealthState::Quarantined;
                self.quarantine_episodes = self.quarantine_episodes.saturating_add(1);
            } else if self.consecutive_failures >= self.config.degraded_after {
                self.state = HealthState::Degraded;
            }
        }
        self.state
    }

    /// The interval until the next poll, given the controller's choice
    /// for a healthy vertex.
    ///
    /// Healthy → `normal`. Degraded → exponential backoff. Quarantined →
    /// the probe cadence. Backoff and probe intervals carry seeded jitter.
    pub fn next_interval(&mut self, normal: Duration) -> Duration {
        match self.state {
            HealthState::Healthy => normal,
            HealthState::Degraded => {
                let exp = self.consecutive_failures.saturating_sub(1).min(32);
                let backoff = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << exp.min(31))
                    .min(self.config.backoff_cap);
                self.jittered(backoff)
            }
            HealthState::Quarantined => {
                // Repeat offenders escalate: episode k since the last
                // served probation probes at base · backoff^(k−1),
                // clamped so the cadence never exceeds backoff_cap (or
                // the base itself, whichever is larger).
                let exp = self.quarantine_episodes.saturating_sub(1).min(16);
                let mult = self.config.requarantine_backoff.max(1.0).powi(exp as i32);
                let cap = self.config.backoff_cap.max(self.config.probe_interval);
                let probe_ns = (self.config.probe_interval.as_nanos() as f64 * mult)
                    .min(cap.as_nanos() as f64);
                self.jittered(Duration::from_nanos(probe_ns as u64))
            }
        }
    }

    fn jittered(&mut self, d: Duration) -> Duration {
        if self.config.jitter_frac <= 0.0 {
            return d;
        }
        let spread = self.config.jitter_frac.min(0.95);
        let factor = 1.0 + self.rng.random_range(-spread..spread);
        Duration::from_nanos((d.as_nanos() as f64 * factor).max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(jitter: f64) -> SupervisorConfig {
        SupervisorConfig { jitter_frac: jitter, ..SupervisorConfig::default() }
    }

    #[test]
    fn starts_healthy_and_uses_controller_interval() {
        let mut m = HealthMonitor::new(cfg(0.0));
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.next_interval(Duration::from_secs(3)), Duration::from_secs(3));
    }

    #[test]
    fn failures_walk_healthy_degraded_quarantined() {
        let mut m = HealthMonitor::new(cfg(0.0));
        assert_eq!(m.on_failure(), HealthState::Degraded);
        assert_eq!(m.on_failure(), HealthState::Degraded);
        assert_eq!(m.on_failure(), HealthState::Degraded);
        assert_eq!(m.on_failure(), HealthState::Quarantined);
        assert_eq!(m.total_failures(), 4);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let mut m = HealthMonitor::new(cfg(0.0));
        m.on_failure();
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(1)); // 2^0 · 1s
        m.on_failure();
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(2));
        m.on_failure();
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(4));
        // Past quarantine the probe cadence takes over.
        m.on_failure();
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(5));
    }

    #[test]
    fn backoff_respects_cap() {
        let mut m = HealthMonitor::new(SupervisorConfig {
            jitter_frac: 0.0,
            quarantine_after: 100,
            backoff_cap: Duration::from_secs(8),
            ..SupervisorConfig::default()
        });
        for _ in 0..40 {
            m.on_failure();
        }
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(8));
    }

    #[test]
    fn degraded_recovers_on_one_success() {
        let mut m = HealthMonitor::new(cfg(0.0));
        m.on_failure();
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.on_success(), HealthState::Healthy);
        assert_eq!(m.consecutive_failures(), 0);
    }

    #[test]
    fn quarantine_needs_consecutive_probe_successes() {
        let mut m = HealthMonitor::new(cfg(0.0));
        for _ in 0..4 {
            m.on_failure();
        }
        assert_eq!(m.state(), HealthState::Quarantined);
        assert_eq!(m.on_success(), HealthState::Quarantined, "one probe is not enough");
        // A relapse resets the recovery streak.
        m.on_failure();
        assert_eq!(m.state(), HealthState::Quarantined);
        assert_eq!(m.on_success(), HealthState::Quarantined);
        assert_eq!(m.on_success(), HealthState::Healthy);
        assert_eq!(m.recoveries(), 1);
    }

    /// Drive the monitor through one full quarantine episode and back to
    /// Healthy (quarantine_after failures, then recovery_successes probes).
    fn quarantine_and_recover(m: &mut HealthMonitor) {
        while m.state() != HealthState::Quarantined {
            m.on_failure();
        }
        while m.state() != HealthState::Healthy {
            m.on_success();
        }
    }

    #[test]
    fn requarantine_probe_escalates_per_episode() {
        let mut m = HealthMonitor::new(SupervisorConfig {
            jitter_frac: 0.0,
            probe_interval: Duration::from_secs(5),
            requarantine_backoff: 2.0,
            probation_polls: 100, // never served in this test
            ..SupervisorConfig::default()
        });
        quarantine_and_recover(&mut m);
        assert_eq!(m.quarantine_episodes(), 1);
        // Relapse: second episode probes at 2× the base cadence.
        while m.state() != HealthState::Quarantined {
            m.on_failure();
        }
        assert_eq!(m.quarantine_episodes(), 2);
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(10));
        // Third episode: 4×, and the cap clamps eventually.
        while m.state() != HealthState::Healthy {
            m.on_success();
        }
        while m.state() != HealthState::Quarantined {
            m.on_failure();
        }
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(20));
        for _ in 0..10 {
            quarantine_and_recover(&mut m);
        }
        while m.state() != HealthState::Quarantined {
            m.on_failure();
        }
        assert_eq!(
            m.next_interval(Duration::from_secs(1)),
            Duration::from_secs(60),
            "escalation clamps at backoff_cap"
        );
    }

    #[test]
    fn served_probation_resets_requarantine_escalation() {
        let mut m = HealthMonitor::new(SupervisorConfig {
            jitter_frac: 0.0,
            probe_interval: Duration::from_secs(5),
            requarantine_backoff: 2.0,
            probation_polls: 4,
            ..SupervisorConfig::default()
        });
        for _ in 0..3 {
            quarantine_and_recover(&mut m);
        }
        assert_eq!(m.quarantine_episodes(), 3);
        // Recovery counted as the first probation poll; three more serve
        // the full probation and forgive the history.
        m.on_success();
        m.on_success();
        assert_eq!(m.quarantine_episodes(), 3, "probation not yet served");
        m.on_success();
        assert_eq!(m.quarantine_episodes(), 0, "full probation forgives past episodes");
        // The next quarantine starts from the base cadence again.
        while m.state() != HealthState::Quarantined {
            m.on_failure();
        }
        assert_eq!(m.next_interval(Duration::from_secs(1)), Duration::from_secs(5));
    }

    #[test]
    fn interrupted_probation_keeps_escalation() {
        let mut m = HealthMonitor::new(SupervisorConfig {
            jitter_frac: 0.0,
            probe_interval: Duration::from_secs(5),
            requarantine_backoff: 2.0,
            probation_polls: 4,
            quarantine_after: 100, // stay Degraded on the blip
            ..SupervisorConfig::default()
        });
        m.on_failure(); // Degraded
        for _ in 0..100 {
            m.on_success();
        }
        // No quarantine history: nothing to forgive, nothing escalated.
        assert_eq!(m.quarantine_episodes(), 0);
        let mut m = HealthMonitor::new(SupervisorConfig {
            jitter_frac: 0.0,
            probe_interval: Duration::from_secs(5),
            requarantine_backoff: 2.0,
            probation_polls: 4,
            ..SupervisorConfig::default()
        });
        quarantine_and_recover(&mut m);
        // A failure mid-probation zeroes the streak; the episode sticks.
        m.on_success();
        m.on_failure();
        m.on_success();
        m.on_success();
        m.on_success();
        assert_eq!(m.quarantine_episodes(), 1, "probation restarted by the blip");
        m.on_success();
        assert_eq!(m.quarantine_episodes(), 0, "served after four clean polls");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let mut a = HealthMonitor::new(SupervisorConfig { seed: 9, ..cfg(0.2) });
        let mut b = HealthMonitor::new(SupervisorConfig { seed: 9, ..cfg(0.2) });
        a.on_failure();
        b.on_failure();
        for _ in 0..16 {
            let x = a.next_interval(Duration::from_secs(1));
            let y = b.next_interval(Duration::from_secs(1));
            assert_eq!(x, y, "same seed, same jitter");
            let ns = x.as_nanos() as f64;
            assert!((0.8e9..=1.2e9).contains(&ns), "jitter within ±20%: {ns}");
        }
    }
}
