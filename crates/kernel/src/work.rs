//! Schedulable units of kernel/application work.

use desim::{SimDuration, SimTime};
use netsim::Packet;

/// What a [`Work`] item does when it completes.
#[derive(Debug, Clone)]
pub enum WorkKind {
    /// The NIC interrupt service routine for one MSI-X vector: reads the
    /// cause register, applies NCAP driver actions, schedules the receive
    /// SoftIRQ.
    Isr {
        /// The RX queue / vector being serviced.
        queue: u8,
    },
    /// Receive-side network stack processing for one frame.
    SoftIrqRx {
        /// The frame being processed.
        frame: Packet,
        /// The RX queue the frame was drained from, so per-queue backlog
        /// accounting can be released when the work completes.
        queue: u8,
    },
    /// One CPU phase of an in-flight application request.
    App {
        /// The kernel-internal request token.
        token: u64,
    },
    /// Transmit-side network stack processing for one frame.
    SoftIrqTx {
        /// The frame to hand to the NIC.
        frame: Packet,
    },
    /// Poll-mode (bypass datapath) receive processing for one frame: a
    /// busy-poll core picked it out of the userspace ring and runs the
    /// thin userspace stack inline — no ISR, no SoftIRQ.
    PollRx {
        /// The frame being processed.
        frame: Packet,
        /// The RX queue the frame was polled from, for per-queue backlog
        /// accounting.
        queue: u8,
    },
    /// Pure overhead (governor tick, `ncap.sw` timer) with no completion
    /// action.
    Overhead,
}

impl WorkKind {
    /// Short label for traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            WorkKind::Isr { .. } => "isr",
            WorkKind::SoftIrqRx { .. } => "softirq-rx",
            WorkKind::App { .. } => "app",
            WorkKind::SoftIrqTx { .. } => "softirq-tx",
            WorkKind::PollRx { .. } => "poll-rx",
            WorkKind::Overhead => "overhead",
        }
    }
}

/// A run-queue entry.
#[derive(Debug, Clone)]
pub struct Work {
    /// Frequency-dependent cost in core cycles.
    pub cycles: u64,
    /// Frequency-independent cost (bus stalls like the PCIe ICR read);
    /// converted to cycles at dispatch frequency.
    pub fixed: SimDuration,
    /// Completion action.
    pub kind: WorkKind,
    /// Core affinity (`Some(0)` for interrupt/stack work on a
    /// single-queue NIC), or any core.
    pub affinity: Option<u8>,
    /// When the item entered the run queue. The CoDel-style shedder uses
    /// this to measure queue sojourn time.
    pub enqueued_at: SimTime,
    /// When a core began executing the item (set at dispatch). Latency
    /// attribution splits run-queue wait from execution with it.
    pub started_at: SimTime,
}

impl Work {
    /// A work item with cycle cost only.
    #[must_use]
    pub fn cycles(cycles: u64, kind: WorkKind) -> Self {
        Work {
            cycles,
            fixed: SimDuration::ZERO,
            kind,
            affinity: None,
            enqueued_at: SimTime::ZERO,
            started_at: SimTime::ZERO,
        }
    }

    /// Pins the work to a core (builder style).
    #[must_use]
    pub fn on_core(mut self, core: u8) -> Self {
        self.affinity = Some(core);
        self
    }

    /// Adds a frequency-independent stall (builder style).
    #[must_use]
    pub fn with_fixed(mut self, fixed: SimDuration) -> Self {
        self.fixed = fixed;
        self
    }

    /// Records when the item entered the run queue (builder style).
    #[must_use]
    pub fn queued_at(mut self, t: SimTime) -> Self {
        self.enqueued_at = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let w = Work::cycles(100, WorkKind::Overhead)
            .on_core(2)
            .with_fixed(SimDuration::from_us(2));
        assert_eq!(w.cycles, 100);
        assert_eq!(w.affinity, Some(2));
        assert_eq!(w.fixed, SimDuration::from_us(2));
        assert_eq!(w.kind.label(), "overhead");
    }

    /// Frames ride in run-queue entries by pointer, so an entry stays
    /// small however large a frame's sideband grows.
    #[test]
    fn work_fits_56_bytes() {
        assert!(std::mem::size_of::<Work>() <= 56);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            WorkKind::Isr { queue: 0 }.label(),
            WorkKind::Overhead.label(),
            WorkKind::App { token: 0 }.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
