//! Quality attributes and the `update_attribute()` API (§III-B.c/d).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// A shared, thread-safe map of named quality attributes.
///
/// "Our current implementation does not permit runtime changes in the
/// handlers or policies used for quality management, but it does permit
/// applications to dynamically update the values of quality attributes.
/// This is done via the API call `update_attribute()`." (§III-B.d)
///
/// Cloning shares the underlying map, so the transport and the
/// application observe each other's updates.
#[derive(Debug, Clone, Default)]
pub struct QualityAttributes {
    inner: Arc<RwLock<HashMap<String, f64>>>,
}

impl QualityAttributes {
    /// An empty attribute map.
    pub fn new() -> QualityAttributes {
        QualityAttributes::default()
    }

    /// Sets (or creates) an attribute — the paper's `update_attribute()`.
    pub fn update_attribute(&self, name: &str, value: f64) {
        self.inner.write().unwrap().insert(name.to_string(), value);
    }

    /// Reads an attribute.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.inner.read().unwrap().get(name).copied()
    }

    /// Reads an attribute, defaulting when unset.
    pub fn get_or(&self, name: &str, default: f64) -> f64 {
        self.get(name).unwrap_or(default)
    }

    /// Removes an attribute, returning its last value.
    pub fn remove(&self, name: &str) -> Option<f64> {
        self.inner.write().unwrap().remove(name)
    }

    /// Snapshot of all attributes (for logging/diagnostics).
    pub fn snapshot(&self) -> HashMap<String, f64> {
        self.inner.read().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_read() {
        let a = QualityAttributes::new();
        assert_eq!(a.get("rtt"), None);
        a.update_attribute("rtt", 42.5);
        assert_eq!(a.get("rtt"), Some(42.5));
        a.update_attribute("rtt", 10.0);
        assert_eq!(a.get_or("rtt", 0.0), 10.0);
        assert_eq!(a.get_or("missing", 7.0), 7.0);
    }

    #[test]
    fn clones_share_state() {
        let a = QualityAttributes::new();
        let b = a.clone();
        a.update_attribute("granularity", 3.0);
        assert_eq!(b.get("granularity"), Some(3.0));
        b.update_attribute("granularity", 4.0);
        assert_eq!(a.get("granularity"), Some(4.0));
    }

    #[test]
    fn remove_and_snapshot() {
        let a = QualityAttributes::new();
        a.update_attribute("x", 1.0);
        a.update_attribute("y", 2.0);
        let snap = a.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(a.remove("x"), Some(1.0));
        assert_eq!(a.get("x"), None);
    }

    #[test]
    fn concurrent_updates_are_safe() {
        let a = QualityAttributes::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        a.update_attribute("rtt", (i * 100 + j) as f64);
                        let _ = a.get("rtt");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(a.get("rtt").is_some());
    }
}
