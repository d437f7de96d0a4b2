//! Flowlet detection.
//!
//! §1: "By 'flowlet', we mean a batch of packets that are backlogged at a
//! sender; a flowlet ends when there is a threshold amount of time during
//! which a sender's queue is empty." The tracker is a small, sans-IO state
//! machine driven by queue occupancy transitions and a clock; the endpoint
//! agent owns one per flow and hands it the idle threshold with the clock,
//! so a tracker is its state and nothing else.

/// Lifecycle state of one flow's current flowlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowletState {
    /// No active flowlet (initial, or after an end was reported).
    #[default]
    Idle,
    /// The sender's queue is non-empty.
    Backlogged,
    /// The queue drained at the contained time; if it stays empty past
    /// the threshold the flowlet ends.
    Draining {
        /// When the queue became empty (ps).
        empty_since_ps: u64,
    },
}

/// Per-flow flowlet state machine, in one word: the drain time while
/// [`FlowletState::Draining`], and above every drain time a tag for each
/// of the other two states. A drain later than `u64::MAX - 2` ps (213
/// days) is recorded as `u64::MAX - 2`.
#[derive(Debug, Clone)]
pub struct FlowletTracker {
    word: u64,
}

/// The tracker word of an idle flow.
const IDLE: u64 = u64::MAX;
/// The tracker word of a backlogged flow.
const BACKLOGGED: u64 = u64::MAX - 1;
/// The latest drain time the word can hold.
const LAST_DRAIN_PS: u64 = u64::MAX - 2;

/// What the caller must do after feeding an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowletAction {
    /// Nothing to report.
    None,
    /// A new flowlet began: notify the allocator (FlowletStart).
    Started,
    /// The flowlet ended: notify the allocator (FlowletEnd).
    Ended,
}

impl Default for FlowletTracker {
    fn default() -> Self {
        Self { word: IDLE }
    }
}

impl FlowletTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state.
    pub fn state(&self) -> FlowletState {
        match self.word {
            IDLE => FlowletState::Idle,
            BACKLOGGED => FlowletState::Backlogged,
            empty_since_ps => FlowletState::Draining { empty_since_ps },
        }
    }

    /// True between `Started` and `Ended` reports.
    pub fn active(&self) -> bool {
        self.word != IDLE
    }

    /// The sender queued data for this flow at time `now`.
    pub fn on_backlog(&mut self, _now_ps: u64) -> FlowletAction {
        // A refill during draining resumes the same flowlet — that is the
        // entire point of the idle threshold: "long lived flows that send
        // intermittently generate multiple flowlets" only when the gap
        // exceeds it.
        let started = self.word == IDLE;
        self.word = BACKLOGGED;
        if started {
            FlowletAction::Started
        } else {
            FlowletAction::None
        }
    }

    /// The sender's queue for this flow drained at time `now`.
    pub fn on_drained(&mut self, now_ps: u64) -> FlowletAction {
        if self.word == BACKLOGGED {
            self.word = now_ps.min(LAST_DRAIN_PS);
        }
        FlowletAction::None
    }

    /// Clock tick: ends the flowlet if the queue has been empty for
    /// `idle_threshold_ps`.
    pub fn poll(&mut self, now_ps: u64, idle_threshold_ps: u64) -> FlowletAction {
        if let FlowletState::Draining { empty_since_ps } = self.state() {
            if now_ps.saturating_sub(empty_since_ps) >= idle_threshold_ps {
                self.word = IDLE;
                return FlowletAction::Ended;
            }
        }
        FlowletAction::None
    }

    /// The earliest time a [`FlowletTracker::poll`] could report an end,
    /// if the flow is draining — lets an event-driven caller set a timer
    /// instead of polling.
    pub fn end_deadline_ps(&self, idle_threshold_ps: u64) -> Option<u64> {
        match self.state() {
            FlowletState::Draining { empty_since_ps } => Some(empty_since_ps + idle_threshold_ps),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 30_000_000; // 30 µs

    #[test]
    fn backlog_starts_exactly_one_flowlet() {
        let mut f = FlowletTracker::new();
        assert_eq!(f.on_backlog(0), FlowletAction::Started);
        assert_eq!(f.on_backlog(5), FlowletAction::None);
        assert!(f.active());
    }

    #[test]
    fn ends_only_after_threshold_idle() {
        let mut f = FlowletTracker::new();
        f.on_backlog(0);
        f.on_drained(1_000);
        assert_eq!(f.poll(1_000 + T - 1, T), FlowletAction::None);
        assert_eq!(f.poll(1_000 + T, T), FlowletAction::Ended);
        assert!(!f.active());
    }

    #[test]
    fn refill_during_drain_continues_the_flowlet() {
        let mut f = FlowletTracker::new();
        f.on_backlog(0);
        f.on_drained(1_000);
        // New data arrives before the threshold: same flowlet.
        assert_eq!(f.on_backlog(1_000 + T / 2), FlowletAction::None);
        assert_eq!(f.poll(1_000 + 2 * T, T), FlowletAction::None, "backlogged");
        // Drain again; only now does the clock restart.
        f.on_drained(3 * T);
        assert_eq!(f.poll(4 * T, T), FlowletAction::Ended);
    }

    #[test]
    fn gap_longer_than_threshold_makes_two_flowlets() {
        // §1 footnote: "long lived flows that send intermittently generate
        // multiple flowlets".
        let mut f = FlowletTracker::new();
        assert_eq!(f.on_backlog(0), FlowletAction::Started);
        f.on_drained(10);
        assert_eq!(f.poll(10 + T, T), FlowletAction::Ended);
        assert_eq!(f.on_backlog(10 + 2 * T), FlowletAction::Started);
    }

    #[test]
    fn drained_while_idle_is_a_noop() {
        let mut f = FlowletTracker::new();
        assert_eq!(f.on_drained(5), FlowletAction::None);
        assert_eq!(f.poll(5 + 2 * T, T), FlowletAction::None);
        assert_eq!(f.state(), FlowletState::Idle);
    }

    #[test]
    fn deadline_reflects_drain_time() {
        let mut f = FlowletTracker::new();
        assert_eq!(f.end_deadline_ps(T), None);
        f.on_backlog(0);
        assert_eq!(f.end_deadline_ps(T), None);
        f.on_drained(7);
        assert_eq!(f.end_deadline_ps(T), Some(7 + T));
    }

    #[test]
    fn the_tracker_is_one_word_and_every_state_round_trips() {
        assert_eq!(std::mem::size_of::<FlowletTracker>(), 8);
        let mut f = FlowletTracker::new();
        assert_eq!(f.state(), FlowletState::Idle);
        f.on_backlog(0);
        assert_eq!(f.state(), FlowletState::Backlogged);
        for at in [0, 1, LAST_DRAIN_PS] {
            f.on_backlog(at);
            f.on_drained(at);
            assert_eq!(f.state(), FlowletState::Draining { empty_since_ps: at });
        }
        // A drain past the last representable time is held there, not
        // mistaken for a tag.
        f.on_backlog(0);
        f.on_drained(u64::MAX);
        assert!(f.active());
        assert_eq!(
            f.state(),
            FlowletState::Draining {
                empty_since_ps: LAST_DRAIN_PS
            }
        );
        assert_eq!(f.poll(u64::MAX, 2), FlowletAction::Ended);
    }

    #[test]
    fn poll_is_idempotent_after_end() {
        let mut f = FlowletTracker::new();
        f.on_backlog(0);
        f.on_drained(0);
        assert_eq!(f.poll(T, T), FlowletAction::Ended);
        assert_eq!(f.poll(2 * T, T), FlowletAction::None);
    }
}
