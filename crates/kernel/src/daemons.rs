//! Background system activity — the baseline workload.
//!
//! Paper §4.1: with no user applications running, the trace still shows
//! ~0.9 write requests per second *"concentrated around a few sectors,
//! which is consistent with logging and table lookup activities that are
//! normally part of routine kernel work"*, at low **and** high sector
//! numbers, almost all 1 KB. Four daemons generate that stream:
//!
//! * **syslogd** — appends short log lines (`SYSLOG_MSG_BYTES` on
//!   average) to `/var/log/messages` (log region, the sector-45,000 hot
//!   spot) at exponentially distributed intervals (`SYSLOG_MEAN_US`).
//! * **update** — the classic 5-second dirty-buffer flush
//!   (`UPDATE_PERIOD_US`); the only thing that actually turns dirtied
//!   cache blocks into disk writes.
//! * **ktable** — periodic kernel accounting/table writes of
//!   `KTABLE_BYTES` into the high-sector system area (Figure 1's high
//!   horizontal line), every `KTABLE_PERIOD_US` plus jitter.
//! * **trace spool** — the instrumentation's own output: the proc-fs trace
//!   buffer is spooled to a high-region file every `SPOOL_PERIOD_US`. The
//!   paper notes *"System and instrumentation logging account for the
//!   almost exclusive amount of writes"* in the non-wavelet experiments.
//!
//! The cadences model one fixed machine (DESIGN §5), so they are constants,
//! not configuration; the kernel's seeded RNG supplies the randomness.

use essio_sim::{SimRng, SimTime};

/// `update` flush period, µs (Linux: 5 s).
const UPDATE_PERIOD_US: SimTime = 5_000_000;
/// Mean syslog inter-arrival, µs (exponential). Calibrated so the
/// quiescent system lands near Table 1's 0.9 req/s (log data + metadata +
/// table + spool writes).
const SYSLOG_MEAN_US: SimTime = 950_000;
/// Mean syslog line length, bytes.
const SYSLOG_MSG_BYTES: u32 = 120;
/// ktable write period, µs, before its up-to-a-quarter jitter.
const KTABLE_PERIOD_US: SimTime = 9_000_000;
/// ktable record size, bytes.
pub(crate) const KTABLE_BYTES: usize = 256;
/// Trace spool period, µs.
const SPOOL_PERIOD_US: SimTime = 10_000_000;

/// The periodic kernel-side activities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DaemonKind {
    /// Dirty-buffer flush (bdflush/update).
    Update,
    /// System logger.
    Syslog,
    /// Kernel table/accounting writer (high sectors).
    KTable,
    /// Instrumentation trace spooler.
    TraceSpool,
}

impl DaemonKind {
    /// All daemons, in boot order.
    pub const ALL: [DaemonKind; 4] = [
        DaemonKind::Update,
        DaemonKind::Syslog,
        DaemonKind::KTable,
        DaemonKind::TraceSpool,
    ];

    /// Next absolute tick time of this daemon given the current time.
    /// `update` and the spool are strictly periodic; syslog and ktable
    /// carry randomness so the baseline is a realistic point process
    /// rather than a metronome.
    pub(crate) fn next_tick(self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let delta = match self {
            DaemonKind::Update => UPDATE_PERIOD_US,
            DaemonKind::Syslog => rng.exp(SYSLOG_MEAN_US as f64).max(1.0) as SimTime,
            DaemonKind::KTable => KTABLE_PERIOD_US + rng.below(KTABLE_PERIOD_US / 4 + 1),
            DaemonKind::TraceSpool => SPOOL_PERIOD_US,
        };
        now + delta.max(1)
    }
}

/// A syslog line length for this event (mean-centered, bounded).
pub(crate) fn syslog_line_len(rng: &mut SimRng) -> u32 {
    SYSLOG_MSG_BYTES / 2 + rng.below(SYSLOG_MSG_BYTES as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_is_strictly_periodic() {
        let mut rng = SimRng::new(1);
        assert_eq!(DaemonKind::Update.next_tick(100, &mut rng), 100 + 5_000_000);
    }

    #[test]
    fn syslog_intervals_are_exponential_with_right_mean() {
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let mut sum = 0u64;
        for _ in 0..n {
            sum += DaemonKind::Syslog.next_tick(0, &mut rng);
        }
        let mean = sum as f64 / n as f64;
        let target = SYSLOG_MEAN_US as f64;
        assert!(
            (mean - target).abs() < target * 0.05,
            "mean {mean} vs {target}"
        );
    }

    #[test]
    fn ticks_are_strictly_in_the_future() {
        let mut rng = SimRng::new(3);
        for kind in DaemonKind::ALL {
            for now in [0u64, 1, 1_000_000_000] {
                assert!(kind.next_tick(now, &mut rng) > now);
            }
        }
    }

    #[test]
    fn syslog_line_lengths_are_bounded_and_varied() {
        let mut rng = SimRng::new(4);
        let lens: Vec<u32> = (0..1000).map(|_| syslog_line_len(&mut rng)).collect();
        assert!(lens.iter().all(|&l| (60..180).contains(&l)));
        let distinct: std::collections::HashSet<u32> = lens.iter().copied().collect();
        assert!(distinct.len() > 20);
    }
}
