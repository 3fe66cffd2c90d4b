//! Run-time measurement containers.
//!
//! Experiments need two kinds of observations from a run: *time series*
//! (e.g. the fraction of nodes holding the plurality opinion, sampled on a
//! grid) and *event logs* (e.g. leader phase changes for Figure 2). Both are
//! deliberately dumb containers — analysis lives in `plurality-stats`.

/// A scalar time series: `(time, value)` pairs in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use plurality_sim::Series;
/// let mut s = Series::new("plurality_fraction");
/// s.push(0.0, 0.4);
/// s.push(1.0, 0.7);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.last_value(), Some(0.7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Series {
    /// Creates an empty series with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded time or is not finite.
    pub fn push(&mut self, time: f64, value: f64) {
        assert!(time.is_finite(), "Series::push: time must be finite");
        if let Some(&last) = self.times.last() {
            assert!(
                time >= last,
                "Series::push: time {time} precedes last time {last}"
            );
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }
}

/// A timestamped log of discrete happenings of type `T`.
///
/// # Examples
///
/// ```
/// use plurality_sim::EventLog;
/// let mut log = EventLog::new();
/// log.record(0.5, "generation 1 born");
/// log.record(1.5, "propagation enabled");
/// assert_eq!(log.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog<T> {
    entries: Vec<(f64, T)>,
}

impl<T> EventLog<T> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn record(&mut self, time: f64, entry: T) {
        assert!(time.is_finite(), "EventLog::record: time must be finite");
        self.entries.push((time, entry));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in recording order.
    pub fn entries(&self) -> &[(f64, T)] {
        &self.entries
    }

    /// Iterates over entries.
    pub fn iter(&self) -> impl Iterator<Item = &(f64, T)> {
        self.entries.iter()
    }
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_in_order() {
        let mut s = Series::new("x");
        s.push(0.0, 1.0);
        s.push(0.5, 2.0);
        s.push(0.5, 3.0); // equal times allowed
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn series_rejects_time_travel() {
        let mut s = Series::new("x");
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }

    #[test]
    fn event_log_accumulates() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.record(1.0, 42u32);
        log.record(2.0, 43u32);
        let collected: Vec<u32> = log.iter().map(|&(_, v)| v).collect();
        assert_eq!(collected, vec![42, 43]);
    }
}
