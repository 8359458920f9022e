//! An ECho substitute: typed publish/subscribe event channels.
//!
//! The remote-visualization experiment (§IV-C.4) runs over the group's
//! ECho event system: "The service portal acts as a sink for the 'ECho'
//! event source that generates bond data" — with *derived* channels whose
//! events are transformed by installed filter functions (ECho installs
//! these with dynamic code generation; here they are registered Rust
//! closures, the same substitution made for PBIO conversion plans).
//!
//! Semantics reproduced:
//! * channels are named and typed: submissions must conform to the
//!   channel's schema;
//! * any number of sources submit, any number of sinks subscribe;
//! * a *derived* channel applies a filter to every event of its parent —
//!   the filter may transform or drop events;
//! * sinks receive events in submission order (per source).

use sbq_model::{TypeDesc, Value};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::sync::RwLock;

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EchoError {
    /// No channel with that name.
    NoSuchChannel(String),
    /// A channel with that name already exists.
    Exists(String),
    /// Submission did not conform to the channel type.
    TypeMismatch {
        /// Channel name.
        channel: String,
        /// Offending value's type name.
        found: String,
    },
}

impl std::fmt::Display for EchoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EchoError::NoSuchChannel(n) => write!(f, "no such channel {n}"),
            EchoError::Exists(n) => write!(f, "channel {n} already exists"),
            EchoError::TypeMismatch { channel, found } => {
                write!(f, "channel {channel} rejected a {found} event")
            }
        }
    }
}

impl std::error::Error for EchoError {}

/// A filter on a derived channel: transform (`Some`) or drop (`None`).
pub type Filter = Arc<dyn Fn(&Value) -> Option<Value> + Send + Sync>;

struct Channel {
    ty: TypeDesc,
    sinks: RwLock<Vec<Sender<Value>>>,
    /// (filter, derived channel name) pairs fed from this channel.
    derived: RwLock<Vec<(Filter, String)>>,
    submitted: std::sync::atomic::AtomicU64,
}

/// A process-local event bus holding named channels.
#[derive(Clone, Default)]
pub struct EchoBus {
    channels: Arc<RwLock<HashMap<String, Arc<Channel>>>>,
}

impl EchoBus {
    /// An empty bus.
    pub fn new() -> EchoBus {
        EchoBus::default()
    }

    /// Creates a typed channel.
    pub fn create_channel(&self, name: &str, ty: TypeDesc) -> Result<(), EchoError> {
        let mut map = self.channels.write().unwrap();
        if map.contains_key(name) {
            return Err(EchoError::Exists(name.to_string()));
        }
        map.insert(
            name.to_string(),
            Arc::new(Channel {
                ty,
                sinks: RwLock::new(Vec::new()),
                derived: RwLock::new(Vec::new()),
                submitted: std::sync::atomic::AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Arc<Channel>, EchoError> {
        self.channels
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| EchoError::NoSuchChannel(name.to_string()))
    }

    /// The channel's event schema.
    pub fn channel_type(&self, name: &str) -> Result<TypeDesc, EchoError> {
        Ok(self.get(name)?.ty.clone())
    }

    /// Channel names, sorted.
    pub fn channel_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.channels.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    /// Subscribes a sink; events arrive on the returned receiver.
    pub fn subscribe(&self, name: &str) -> Result<Receiver<Value>, EchoError> {
        let ch = self.get(name)?;
        let (tx, rx) = channel();
        ch.sinks.write().unwrap().push(tx);
        Ok(rx)
    }

    /// Creates a *derived* channel: every event of `parent` is passed
    /// through `filter`; `Some` results are submitted to the new channel.
    /// The derived channel's type is `ty` (the filter's output schema).
    pub fn derive(
        &self,
        parent: &str,
        name: &str,
        ty: TypeDesc,
        filter: Filter,
    ) -> Result<(), EchoError> {
        let p = self.get(parent)?;
        self.create_channel(name, ty)?;
        p.derived.write().unwrap().push((filter, name.to_string()));
        Ok(())
    }

    /// Submits an event from a source. Delivery is synchronous fan-out to
    /// sinks and derived channels (recursively).
    pub fn submit(&self, name: &str, event: Value) -> Result<(), EchoError> {
        let ch = self.get(name)?;
        if !event.conforms_to(&ch.ty) {
            return Err(EchoError::TypeMismatch {
                channel: name.to_string(),
                found: event.type_of().name(),
            });
        }
        ch.submitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Fan out to sinks, dropping disconnected ones.
        ch.sinks
            .write()
            .unwrap()
            .retain(|tx| tx.send(event.clone()).is_ok());
        // Feed derived channels.
        let derived = ch.derived.read().unwrap().clone();
        for (filter, dname) in derived {
            if let Some(out) = filter(&event) {
                // Recursive submission applies the derived channel's own
                // type check and further derivations.
                self.submit(&dname, out)?;
            }
        }
        Ok(())
    }

    /// Events submitted to a channel so far.
    pub fn submitted(&self, name: &str) -> Result<u64, EchoError> {
        Ok(self
            .get(name)?
            .submitted
            .load(std::sync::atomic::Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_ty() -> TypeDesc {
        TypeDesc::struct_of("pt", vec![("x", TypeDesc::Float), ("y", TypeDesc::Float)])
    }

    fn pt(x: f64, y: f64) -> Value {
        Value::struct_of("pt", vec![("x", Value::Float(x)), ("y", Value::Float(y))])
    }

    #[test]
    fn submit_fans_out_to_all_sinks() {
        let bus = EchoBus::new();
        bus.create_channel("pts", point_ty()).unwrap();
        let rx1 = bus.subscribe("pts").unwrap();
        let rx2 = bus.subscribe("pts").unwrap();
        bus.submit("pts", pt(1.0, 2.0)).unwrap();
        assert_eq!(rx1.try_recv().unwrap(), pt(1.0, 2.0));
        assert_eq!(rx2.try_recv().unwrap(), pt(1.0, 2.0));
        assert_eq!(bus.submitted("pts").unwrap(), 1);
    }

    #[test]
    fn type_checked_submission() {
        let bus = EchoBus::new();
        bus.create_channel("pts", point_ty()).unwrap();
        let err = bus.submit("pts", Value::Int(5)).unwrap_err();
        assert!(matches!(err, EchoError::TypeMismatch { .. }));
        assert!(matches!(
            bus.submit("zzz", pt(0.0, 0.0)),
            Err(EchoError::NoSuchChannel(_))
        ));
    }

    #[test]
    fn duplicate_channel_rejected() {
        let bus = EchoBus::new();
        bus.create_channel("a", TypeDesc::Int).unwrap();
        assert_eq!(
            bus.create_channel("a", TypeDesc::Int),
            Err(EchoError::Exists("a".into()))
        );
    }

    #[test]
    fn derived_channels_transform_and_drop() {
        let bus = EchoBus::new();
        bus.create_channel("pts", point_ty()).unwrap();
        // Derived: keep only x >= 0, project to the x coordinate.
        bus.derive(
            "pts",
            "xs",
            TypeDesc::Float,
            Arc::new(|v: &Value| {
                let x = v.as_struct().ok()?.field("x")?.as_float().ok()?;
                (x >= 0.0).then_some(Value::Float(x))
            }),
        )
        .unwrap();
        let rx = bus.subscribe("xs").unwrap();
        bus.submit("pts", pt(3.0, 1.0)).unwrap();
        bus.submit("pts", pt(-2.0, 1.0)).unwrap();
        bus.submit("pts", pt(5.0, 0.0)).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Value::Float(3.0));
        assert_eq!(rx.try_recv().unwrap(), Value::Float(5.0));
        assert!(rx.try_recv().is_err(), "dropped event leaked");
    }

    #[test]
    fn chained_derivation() {
        let bus = EchoBus::new();
        bus.create_channel("a", TypeDesc::Int).unwrap();
        bus.derive(
            "a",
            "b",
            TypeDesc::Int,
            Arc::new(|v| Some(Value::Int(v.as_int().ok()? * 2))),
        )
        .unwrap();
        bus.derive(
            "b",
            "c",
            TypeDesc::Int,
            Arc::new(|v| Some(Value::Int(v.as_int().ok()? + 1))),
        )
        .unwrap();
        let rx = bus.subscribe("c").unwrap();
        bus.submit("a", Value::Int(10)).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Value::Int(21));
    }

    #[test]
    fn disconnected_sinks_are_pruned() {
        let bus = EchoBus::new();
        bus.create_channel("a", TypeDesc::Int).unwrap();
        let rx = bus.subscribe("a").unwrap();
        drop(rx);
        bus.submit("a", Value::Int(1)).unwrap(); // must not error
        let rx2 = bus.subscribe("a").unwrap();
        bus.submit("a", Value::Int(2)).unwrap();
        assert_eq!(rx2.try_recv().unwrap(), Value::Int(2));
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = EchoBus::new();
        bus.create_channel("a", TypeDesc::Int).unwrap();
        let rx = bus.subscribe("a").unwrap();
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                bus2.submit("a", Value::Int(i)).unwrap();
            }
        });
        t.join().unwrap();
        let got: Vec<i64> = rx.try_iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
