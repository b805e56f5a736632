//! The connection-level backup-failover machine (active → degraded →
//! failover → recovered), shared by the simulator and the endpoint.

/// A transition [`Failover::update`] just took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverEdge {
    /// Every primary is unusable: data moves onto the backups.
    BackupActivated,
    /// A primary is usable again: the backups stand down.
    BackupStoodDown,
}

/// Backup subflows stay cold until **every** primary is unusable (closed
/// or potentially failed), then engage, stamping the failover latency
/// against a clock started by the first unanswered primary timeout; they
/// stand down the moment a primary is usable again.
///
/// Time is the caller's integer clock (any unit); the caller decides which
/// subflows are primaries and which are usable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failover {
    backup_active: bool,
    /// When the first unanswered primary timeout fired with no primary
    /// progress since — the failover clock of the open episode.
    primary_down_since: Option<u64>,
    latency: Option<u64>,
    activations: u64,
}

impl Failover {
    /// Whether backup subflows currently carry data.
    pub fn backup_active(&self) -> bool {
        self.backup_active
    }

    /// Latency of the most recent activation: failover clock start to
    /// engagement (zero when the primaries were closed by explicit
    /// signaling rather than discovered dead by timers).
    pub fn latency(&self) -> Option<u64> {
        self.latency
    }

    /// Times the backups were engaged.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// A primary subflow's retransmission timer fired with data
    /// outstanding. The first one while the backups are cold and no
    /// earlier episode is open starts the failover clock.
    pub fn on_primary_timeout(&mut self, now: u64) {
        if !self.backup_active && self.primary_down_since.is_none() {
            self.primary_down_since = Some(now);
        }
    }

    /// A primary subflow's ACK showed progress. Before engagement this
    /// closes the open episode; with the backups engaged the stand-down in
    /// [`Failover::update`] clears the clock instead.
    pub fn on_primary_progress(&mut self) {
        if !self.backup_active {
            self.primary_down_since = None;
        }
    }

    /// Re-evaluate before scheduling data: `usable_primary` /
    /// `usable_backup` say whether any subflow of that priority is open
    /// and not potentially failed.
    pub fn update(
        &mut self,
        now: u64,
        usable_primary: bool,
        usable_backup: bool,
    ) -> Option<FailoverEdge> {
        if usable_primary {
            if !self.backup_active {
                return None;
            }
            self.backup_active = false;
            self.primary_down_since = None;
            Some(FailoverEdge::BackupStoodDown)
        } else if usable_backup && !self.backup_active {
            self.backup_active = true;
            self.activations += 1;
            self.latency = Some(now.saturating_sub(self.primary_down_since.unwrap_or(now)));
            Some(FailoverEdge::BackupActivated)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FailoverEdge::{BackupActivated, BackupStoodDown};

    #[test]
    fn first_primary_timeout_starts_the_clock_once() {
        let mut f = Failover::default();
        f.on_primary_timeout(100);
        f.on_primary_timeout(300);
        assert_eq!(f.update(500, false, true), Some(BackupActivated));
        assert_eq!(f.latency(), Some(400), "engagement stamps now − since (the first timeout)");
        assert!(f.backup_active());
        assert_eq!(f.activations(), 1);
        assert_eq!(f.update(600, false, true), None, "already engaged");
    }

    #[test]
    fn progress_before_engagement_closes_the_episode() {
        let mut f = Failover::default();
        f.on_primary_timeout(100);
        f.on_primary_progress();
        f.on_primary_timeout(900);
        assert_eq!(f.update(1000, false, true), Some(BackupActivated));
        assert_eq!(f.latency(), Some(100), "the clock restarted at the later timeout");
    }

    #[test]
    fn progress_and_timeouts_while_engaged_leave_the_clock_alone() {
        let mut f = Failover::default();
        f.on_primary_timeout(100);
        f.update(500, false, true);
        // A potentially-failed primary's probe gets through, but it is not
        // usable yet; neither that nor a further timeout moves the clock.
        f.on_primary_progress();
        f.on_primary_timeout(700);
        assert_eq!(f.update(800, true, true), Some(BackupStoodDown));
        // Stand-down cleared the clock: the next closure is signalled.
        assert_eq!(f.update(900, false, true), Some(BackupActivated));
        assert_eq!(f.latency(), Some(0));
        assert_eq!(f.activations(), 2);
    }

    #[test]
    fn signalled_closure_with_no_clock_gives_latency_zero() {
        let mut f = Failover::default();
        assert_eq!(f.update(1234, false, true), Some(BackupActivated));
        assert_eq!(f.latency(), Some(0));
    }

    #[test]
    fn stand_down_clears_the_clock() {
        let mut f = Failover::default();
        f.on_primary_timeout(100);
        f.update(500, false, true);
        assert_eq!(f.update(600, true, true), Some(BackupStoodDown));
        assert!(!f.backup_active());
        assert_eq!(f.update(700, true, true), None, "nothing to stand down twice");
        f.on_primary_timeout(1000);
        assert_eq!(f.update(1300, false, true), Some(BackupActivated));
        assert_eq!(f.latency(), Some(300), "measured from the new episode, not the old one");
    }

    #[test]
    fn without_a_usable_backup_nothing_engages() {
        let mut f = Failover::default();
        f.on_primary_timeout(100);
        assert_eq!(f.update(500, false, false), None);
        assert!(!f.backup_active());
        assert_eq!(f.latency(), None);
        assert_eq!(f.activations(), 0);
    }
}
