//! Work accounting.
//!
//! The engine counts the operations it performs: resolutions, unifications,
//! builtin calls and grain-size tests. The static analysis bounds only
//! `resolutions`, the paper's unit. [`Counters::work`] converts the counters
//! into a single scalar number of *work units*, which is what the task tree
//! records and the multiprocessor simulator schedules.

use serde::{Deserialize, Serialize};

/// Raw operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Number of successful clause resolutions (clause body entries).
    pub resolutions: u64,
    /// Number of head-unification attempts (successful or not).
    pub head_attempts: u64,
    /// Number of elementary unification steps performed.
    pub unifications: u64,
    /// Number of builtin calls executed.
    pub builtins: u64,
    /// Number of `$grain_ge` tests executed.
    pub grain_tests: u64,
    /// Number of list/term elements traversed by grain-size tests (the runtime
    /// overhead of maintaining/evaluating size information).
    pub grain_test_elements: u64,
}

impl Counters {
    /// Component-wise difference (`self − earlier`), used to attribute work to
    /// a task segment.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            resolutions: self.resolutions - earlier.resolutions,
            head_attempts: self.head_attempts - earlier.head_attempts,
            unifications: self.unifications - earlier.unifications,
            builtins: self.builtins - earlier.builtins,
            grain_tests: self.grain_tests - earlier.grain_tests,
            grain_test_elements: self.grain_test_elements - earlier.grain_test_elements,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Counters) -> Counters {
        Counters {
            resolutions: self.resolutions + other.resolutions,
            head_attempts: self.head_attempts + other.head_attempts,
            unifications: self.unifications + other.unifications,
            builtins: self.builtins + other.builtins,
            grain_tests: self.grain_tests + other.grain_tests,
            grain_test_elements: self.grain_test_elements + other.grain_test_elements,
        }
    }

    /// The counters as scalar work units in the paper's unit, resolutions:
    /// each resolution is one unit, unification and builtins are
    /// free, and a grain-size test charges one unit plus one per traversed
    /// element (the runtime overhead of granularity control, studied in
    /// Section 7).
    pub fn work(&self) -> f64 {
        (self.resolutions + self.grain_tests + self.grain_test_elements) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_counts_resolutions_and_tests() {
        let c = Counters {
            resolutions: 10,
            head_attempts: 15,
            unifications: 40,
            builtins: 5,
            grain_tests: 2,
            grain_test_elements: 6,
        };
        assert_eq!(c.work(), 10.0 + 2.0 + 6.0);
    }

    #[test]
    fn since_and_add_are_inverse() {
        let a = Counters {
            resolutions: 5,
            head_attempts: 7,
            unifications: 9,
            builtins: 1,
            grain_tests: 0,
            grain_test_elements: 0,
        };
        let b = Counters {
            resolutions: 2,
            head_attempts: 3,
            unifications: 4,
            builtins: 1,
            grain_tests: 0,
            grain_test_elements: 0,
        };
        let diff = a.since(&b);
        assert_eq!(diff.add(&b), a);
        assert_eq!(diff.resolutions, 3);
    }
}
