//! The format server: assigns ids to formats and hands descriptions back
//! to receivers that encounter an unknown id.
//!
//! Paper §III-B.a: "Every PBIO transaction begins with a registration of
//! the format with a 'format server', which collects and caches PBIO
//! formats. Whenever a new type is encountered, the application consults
//! the format server to interpret the message. This transaction occurs
//! only once, since the format is cached locally thereafter."

use crate::format::FormatDesc;
use crate::PbioError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Anything that can act as the deployment's format registry: the
/// in-process [`FormatServer`], or [`crate::remote::RemoteFormatServer`]
/// when the registry runs as its own network service (the deployment
/// style the paper describes).
pub trait FormatDirectory: Send + Sync {
    /// Registers a format, returning its id (idempotent per format).
    fn register(&self, desc: &FormatDesc) -> Result<u32, PbioError>;
    /// Resolves an id to its format description.
    fn lookup(&self, id: u32) -> Result<Option<FormatDesc>, PbioError>;
}

/// A process-wide (or per-deployment) format registry, shared by all
/// endpoints via `Arc`.
#[derive(Debug, Default)]
pub struct FormatServer {
    inner: RwLock<Inner>,
    lookups: AtomicU64,
    registrations: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    by_id: HashMap<u32, FormatDesc>,
    by_desc: HashMap<FormatDesc, u32>,
    next_id: u32,
}

impl FormatServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        FormatServer::default()
    }

    /// Registers a format, returning its id. Registering an identical
    /// format again returns the existing id (idempotent).
    pub fn register(&self, desc: &FormatDesc) -> u32 {
        self.registrations.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap();
        if let Some(&id) = inner.by_desc.get(desc) {
            return id;
        }
        inner.next_id += 1;
        let id = inner.next_id;
        inner.by_id.insert(id, desc.clone());
        inner.by_desc.insert(desc.clone(), id);
        id
    }

    /// Looks up a format by id (a receiver "consulting the format
    /// server").
    pub fn lookup(&self, id: u32) -> Option<FormatDesc> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.read().unwrap().by_id.get(&id).cloned()
    }

    /// Number of distinct formats registered.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().by_id.len()
    }

    /// Whether no formats are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total registration calls (including idempotent repeats).
    pub fn registration_calls(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }

    /// Total lookup calls served.
    pub fn lookup_calls(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }
}

impl FormatDirectory for FormatServer {
    fn register(&self, desc: &FormatDesc) -> Result<u32, PbioError> {
        Ok(FormatServer::register(self, desc))
    }

    fn lookup(&self, id: u32) -> Result<Option<FormatDesc>, PbioError> {
        Ok(FormatServer::lookup(self, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatOptions;
    use sbq_model::workload;
    use std::sync::Arc;

    #[test]
    fn register_is_idempotent() {
        let s = FormatServer::new();
        let d = FormatDesc::from_type(&workload::nested_struct_type(2), FormatOptions::default())
            .unwrap();
        let id1 = s.register(&d);
        let id2 = s.register(&d);
        assert_eq!(id1, id2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.registration_calls(), 2);
    }

    #[test]
    fn distinct_formats_get_distinct_ids() {
        let s = FormatServer::new();
        let d1 = FormatDesc::from_type(&workload::nested_struct_type(1), FormatOptions::default())
            .unwrap();
        let d2 = FormatDesc::from_type(&workload::nested_struct_type(2), FormatOptions::default())
            .unwrap();
        assert_ne!(s.register(&d1), s.register(&d2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let s = FormatServer::new();
        let d = FormatDesc::from_type(&workload::nested_struct_type(1), FormatOptions::default())
            .unwrap();
        let id = s.register(&d);
        assert_eq!(s.lookup(id), Some(d));
        assert_eq!(s.lookup(9999), None);
        assert_eq!(s.lookup_calls(), 2);
    }

    #[test]
    fn concurrent_registration_is_consistent() {
        let s = Arc::new(FormatServer::new());
        let d = FormatDesc::from_type(&workload::nested_struct_type(3), FormatOptions::default())
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let d = d.clone();
            handles.push(std::thread::spawn(move || s.register(&d)));
        }
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(s.len(), 1);
    }
}
