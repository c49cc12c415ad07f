//! The append-only log of committed entries.
//!
//! Both client commands and OptiLog measurements are replicated through the
//! same consensus engine and end up in an ordered, append-only log (Fig 1).
//! [`AppendLog`] is that log: entries are appended with consecutive sequence
//! numbers and can never be mutated or removed, which is what lets monitors
//! at different replicas derive identical metrics from identical prefixes.

use serde::{Deserialize, Serialize};

/// A committed log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry<T> {
    /// Position in the log (0-based, dense).
    pub seq: u64,
    /// The committed value.
    pub value: T,
}

/// An append-only, totally ordered log.
#[derive(Debug, Clone, Default)]
pub struct AppendLog<T> {
    entries: Vec<LogEntry<T>>,
}

impl<T> AppendLog<T> {
    /// Create an empty log.
    pub fn new() -> Self {
        AppendLog {
            entries: Vec::new(),
        }
    }

    /// Append a value, returning its sequence number.
    pub fn append(&mut self, value: T) -> u64 {
        let seq = self.entries.len() as u64;
        self.entries.push(LogEntry { seq, value });
        seq
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `seq`, if committed.
    pub fn get(&self, seq: u64) -> Option<&LogEntry<T>> {
        self.entries.get(seq as usize)
    }

    /// The most recently committed entry.
    pub fn last(&self) -> Option<&LogEntry<T>> {
        self.entries.last()
    }

    /// Iterate over all entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry<T>> {
        self.entries.iter()
    }

    /// Iterate over entries starting at `from` (inclusive).
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &LogEntry<T>> {
        self.entries.iter().skip(from as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_dense_sequence_numbers() {
        let mut log = AppendLog::new();
        assert_eq!(log.append("a"), 0);
        assert_eq!(log.append("b"), 1);
        assert_eq!(log.append("c"), 2);
        assert_eq!(log.len(), 3);
        assert_eq!(log.get(1).unwrap().value, "b");
        assert_eq!(log.last().unwrap().seq, 2);
    }

    #[test]
    fn empty_log_behaviour() {
        let log: AppendLog<u32> = AppendLog::new();
        assert!(log.is_empty());
        assert!(log.get(0).is_none());
        assert!(log.last().is_none());
    }

    #[test]
    fn iter_from_skips_prefix() {
        let mut log = AppendLog::new();
        for i in 0..10u32 {
            log.append(i);
        }
        let tail: Vec<u32> = log.iter_from(7).map(|e| e.value).collect();
        assert_eq!(tail, vec![7, 8, 9]);
    }
}
