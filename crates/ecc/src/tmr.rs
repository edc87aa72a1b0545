//! Triple Modular Redundancy voting for handshake signals (§4.6).
//!
//! The paper protects the narrow router-to-router handshaking wires
//! (credits, NACKs, probe strobes) by triplicating each line and voting.
//! [`TmrLine`] is one such wire: it reads the 2-of-3 majority and reports
//! whether the replicas disagreed (so the fault statistics can count
//! masked upsets).

/// A triplicated boolean line with voting, modelling one handshake wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TmrLine {
    replicas: [bool; 3],
}

impl TmrLine {
    /// Creates a line driving `value` on all three replicas.
    pub fn new(value: bool) -> Self {
        TmrLine {
            replicas: [value; 3],
        }
    }

    /// Injects an upset into replica `index` (`0..3`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    pub fn upset(&mut self, index: usize) {
        self.replicas[index] = !self.replicas[index];
    }

    /// Reads the voted value.
    pub fn read(&self) -> bool {
        let ones = self.replicas.iter().filter(|&&r| r).count();
        ones >= 2
    }

    /// Whether the replicas currently disagree.
    pub fn has_disagreement(&self) -> bool {
        !(self.replicas[0] == self.replicas[1] && self.replicas[1] == self.replicas[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmr_line_masks_single_upset() {
        let mut line = TmrLine::new(true);
        assert!(line.read());
        line.upset(1);
        assert!(line.read());
        assert!(line.has_disagreement());
        let line = TmrLine::new(false);
        assert!(!line.read());
        assert!(!line.has_disagreement());
    }

    #[test]
    fn tmr_line_two_upsets_flip_the_vote() {
        // TMR's design limit: two simultaneous upsets win the vote. The
        // paper's single-event-upset model excludes this.
        let mut line = TmrLine::new(false);
        line.upset(0);
        line.upset(2);
        assert!(line.read());
    }
}
