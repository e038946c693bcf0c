//! `failed_ratio` accounting: failed, refused or wrong-output units over
//! attempted units.

use dls_service::ErrorCode;

/// What one unit of work came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Done, output checked.
    Ok,
    /// The server had no work right now; the unit is retried, so it is
    /// neither an attempt nor a failure.
    Pending,
    /// The server refused or failed the request with a typed error.
    Refused(ErrorCode),
    /// The unit completed but its output failed a check.
    Wrong,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed units whose output was wrong, as opposed to refused.
    pub wrong: u64,
}

impl Tally {
    pub fn record(&mut self, unit: Unit) {
        match unit {
            Unit::Pending => {}
            Unit::Ok => self.attempted += 1,
            Unit::Refused(_) => {
                self.attempted += 1;
                self.failed += 1;
            }
            Unit::Wrong => {
                self.attempted += 1;
                self.failed += 1;
                self.wrong += 1;
            }
        }
    }

    /// Count `n` units of the same outcome.
    pub fn record_n(&mut self, unit: Unit, n: u64) {
        for _ in 0..n {
            self.record(unit);
        }
    }

    /// Record a check: `Ok` when it holds, `Wrong` when it does not.
    pub fn check(&mut self, holds: bool) {
        self.record(if holds { Unit::Ok } else { Unit::Wrong });
    }

    /// Re-check units already counted: a failed check turns one of them
    /// into a wrong-output failure without adding an attempt.
    pub fn verify(&mut self, holds: bool) {
        if !holds {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_is_not_a_failure_and_not_an_attempt() {
        let mut t = Tally::default();
        t.record(Unit::Ok);
        t.record(Unit::Pending);
        t.record(Unit::Pending);
        assert_eq!(t, Tally { attempted: 1, failed: 0, wrong: 0 });
        assert_eq!(t.failed_ratio(), 0.0);
    }

    #[test]
    fn too_many_jobs_counts_as_failed() {
        let mut t = Tally::default();
        t.record_n(Unit::Ok, 1024);
        t.record_n(Unit::Refused(ErrorCode::TooManyJobs), 3976);
        assert_eq!(t, Tally { attempted: 5000, failed: 3976, wrong: 0 });
        assert!((t.failed_ratio() - 0.7952).abs() < 1e-12);
    }

    #[test]
    fn wrong_output_counts_and_tallies_add() {
        let mut a = Tally::default();
        a.check(true);
        a.check(false);
        let mut b = Tally::default();
        b.record(Unit::Refused(ErrorCode::Busy));
        a.add(b);
        assert_eq!(a, Tally { attempted: 3, failed: 2, wrong: 1 });
        a.verify(true);
        a.verify(false);
        assert_eq!(a, Tally { attempted: 3, failed: 3, wrong: 2 });
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
