//! Quality handlers: application-provided message transformations.
//!
//! "When there is no direct correlation between message types …, or if
//! complex handlers are to be used to transform data (applying resizing
//! handlers to images, for example), the necessary quality handlers are
//! specified by the user along with the quality file." (§III-B.b)
//!
//! The paper installs handlers statically at stub-generation time and
//! names runtime installation as future work (§V); [`HandlerRegistry`]
//! supports both — handlers are named, late-bound, and may be registered
//! or replaced while the system runs.

use crate::attributes::QualityAttributes;
use sbq_model::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// A message transformation parameterised by the current quality
/// attributes.
pub trait QualityHandler: Send + Sync {
    /// Transforms an outgoing (or incoming) message value.
    fn apply(&self, value: &Value, attrs: &QualityAttributes) -> Value;

    /// Human-readable description for diagnostics.
    fn describe(&self) -> &str {
        "quality handler"
    }
}

/// Closures are handlers.
impl<F> QualityHandler for F
where
    F: Fn(&Value, &QualityAttributes) -> Value + Send + Sync,
{
    fn apply(&self, value: &Value, attrs: &QualityAttributes) -> Value {
        self(value, attrs)
    }
}

/// A named, runtime-mutable registry of quality handlers.
#[derive(Clone, Default)]
pub struct HandlerRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<dyn QualityHandler>>>>,
}

impl HandlerRegistry {
    /// An empty registry.
    pub fn new() -> HandlerRegistry {
        HandlerRegistry::default()
    }

    /// Installs (or replaces) a handler under `name`. Runtime installation
    /// is the paper's future-work extension, implemented here.
    pub fn install(&self, name: &str, handler: impl QualityHandler + 'static) {
        self.inner
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::new(handler));
    }

    /// Removes a handler.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().unwrap().remove(name).is_some()
    }

    /// Fetches a handler by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn QualityHandler>> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// Applies the named handler, or returns the value unchanged when no
    /// such handler exists (the "trivial quality handler" the stub
    /// generator falls back to, §III-A).
    pub fn apply_or_identity(&self, name: &str, value: &Value, attrs: &QualityAttributes) -> Value {
        match self.get(name) {
            Some(h) => h.apply(value, attrs),
            None => value.clone(),
        }
    }

    /// Names of installed handlers (sorted, for diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for HandlerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerRegistry")
            .field("handlers", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halve_array(value: &Value, _attrs: &QualityAttributes) -> Value {
        match value {
            Value::FloatArray(v) => Value::FloatArray(v.iter().copied().step_by(2).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn install_and_apply() {
        let reg = HandlerRegistry::new();
        reg.install("halve", halve_array);
        let attrs = QualityAttributes::new();
        let v = Value::FloatArray(vec![1.0, 2.0, 3.0, 4.0]);
        let out = reg.get("halve").unwrap().apply(&v, &attrs);
        assert_eq!(out, Value::FloatArray(vec![1.0, 3.0]));
    }

    #[test]
    fn missing_handler_is_identity() {
        let reg = HandlerRegistry::new();
        let attrs = QualityAttributes::new();
        let v = Value::Int(5);
        assert_eq!(reg.apply_or_identity("nope", &v, &attrs), v);
    }

    #[test]
    fn handlers_can_read_attributes() {
        let reg = HandlerRegistry::new();
        reg.install("scale", |v: &Value, attrs: &QualityAttributes| {
            let k = attrs.get_or("factor", 1.0);
            match v {
                Value::Float(x) => Value::Float(x * k),
                other => other.clone(),
            }
        });
        let attrs = QualityAttributes::new();
        attrs.update_attribute("factor", 3.0);
        assert_eq!(
            reg.apply_or_identity("scale", &Value::Float(2.0), &attrs),
            Value::Float(6.0)
        );
    }

    #[test]
    fn runtime_replacement_and_removal() {
        let reg = HandlerRegistry::new();
        reg.install("h", |_: &Value, _: &QualityAttributes| Value::Int(1));
        reg.install("h", |_: &Value, _: &QualityAttributes| Value::Int(2));
        let attrs = QualityAttributes::new();
        assert_eq!(
            reg.apply_or_identity("h", &Value::Int(0), &attrs),
            Value::Int(2)
        );
        assert!(reg.remove("h"));
        assert!(!reg.remove("h"));
        assert_eq!(reg.names(), Vec::<String>::new());
    }

    #[test]
    fn clones_share_registrations() {
        let reg = HandlerRegistry::new();
        let reg2 = reg.clone();
        reg.install("x", |v: &Value, _: &QualityAttributes| v.clone());
        assert!(reg2.get("x").is_some());
    }
}
