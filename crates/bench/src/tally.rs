//! Client operation outcomes, tallied by kind (E14, E17, E18).

use sbft_core::cluster::OpOutcome;

use crate::table::Row;

/// Counts of client operations by how they ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Completed writes.
    pub writes_ok: u64,
    /// Completed reads.
    pub reads_ok: u64,
    /// Aborted reads (split replies, no `2f+1` witness, union off).
    pub aborted: u64,
    /// Operations that died on a lone deadline (or a stuck driver).
    pub timed_out: u64,
    /// Operations that burned through every retry.
    pub exhausted: u64,
}

impl OpTally {
    /// Count one operation outcome.
    pub fn record<T>(&mut self, out: &OpOutcome<T>, is_write: bool) {
        match out {
            OpOutcome::Ok(_) if is_write => self.writes_ok += 1,
            OpOutcome::Ok(_) => self.reads_ok += 1,
            OpOutcome::Aborted => self.aborted += 1,
            OpOutcome::TimedOut { .. } => self.timed_out += 1,
            OpOutcome::Exhausted { .. } => self.exhausted += 1,
        }
    }

    /// The five tally columns of a table row.
    pub fn columns(&self, r: &mut Row) {
        r.col("writes ok", "writes_ok", self.writes_ok);
        r.col("reads ok", "reads_ok", self.reads_ok);
        r.col("aborted", "aborted", self.aborted);
        r.col("timed out", "timed_out", self.timed_out);
        r.col("exhausted", "exhausted", self.exhausted);
    }
}
