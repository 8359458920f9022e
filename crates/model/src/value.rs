//! Dynamic values conforming to [`TypeDesc`] schemas.

use crate::ty::{StructDesc, TypeDesc};
use crate::ModelError;
use std::borrow::Cow;
use std::fmt;

/// A dynamically-typed parameter value.
///
/// `IntArray`/`FloatArray` are packed representations of `List(Int)` /
/// `List(Float)`: they conform to those list types but keep their elements
/// in a flat buffer, which is what makes the "sender transmits native
/// binary data" path of the paper meaningful for scientific arrays.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Single-byte character.
    Char(u8),
    /// String.
    Str(String),
    /// Opaque byte buffer.
    Bytes(Vec<u8>),
    /// Generic list.
    List(Vec<Value>),
    /// Packed integer array (conforms to `List(Int)`).
    IntArray(Vec<i64>),
    /// Packed float array (conforms to `List(Float)`).
    FloatArray(Vec<f64>),
    /// Struct value.
    Struct(StructValue),
}

/// A struct value: a type name plus ordered `(field, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct StructValue {
    /// Name of the struct type this value instantiates.
    pub name: String,
    /// Ordered field values.
    pub fields: Vec<(String, Value)>,
}

impl StructValue {
    /// Creates a struct value.
    pub fn new(name: impl Into<String>, fields: Vec<(String, Value)>) -> Self {
        StructValue {
            name: name.into(),
            fields,
        }
    }

    /// Returns the value of the named field, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Mutable access to the named field.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.fields
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

impl Value {
    /// Builds a struct value from `(name, value)` pairs.
    pub fn struct_of(name: impl Into<String>, fields: Vec<(&str, Value)>) -> Value {
        Value::Struct(StructValue::new(
            name,
            fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        ))
    }

    /// Infers the most specific [`TypeDesc`] describing this value.
    ///
    /// Empty generic lists infer as `List(Int)`; callers that care should
    /// check values against an external schema with [`Value::conforms_to`].
    pub fn type_of(&self) -> TypeDesc {
        match self {
            Value::Int(_) => TypeDesc::Int,
            Value::Float(_) => TypeDesc::Float,
            Value::Char(_) => TypeDesc::Char,
            Value::Str(_) => TypeDesc::Str,
            Value::Bytes(_) => TypeDesc::Bytes,
            Value::IntArray(_) => TypeDesc::list_of(TypeDesc::Int),
            Value::FloatArray(_) => TypeDesc::list_of(TypeDesc::Float),
            Value::List(vs) => {
                let elem = vs.first().map(Value::type_of).unwrap_or(TypeDesc::Int);
                TypeDesc::list_of(elem)
            }
            Value::Struct(s) => TypeDesc::Struct(StructDesc::new(
                s.name.clone(),
                s.fields
                    .iter()
                    .map(|(n, v)| (n.clone(), v.type_of()))
                    .collect(),
            )),
        }
    }

    /// Checks structural conformance of this value against a schema.
    pub fn conforms_to(&self, ty: &TypeDesc) -> bool {
        match (self, ty) {
            (Value::Int(_), TypeDesc::Int)
            | (Value::Float(_), TypeDesc::Float)
            | (Value::Char(_), TypeDesc::Char)
            | (Value::Str(_), TypeDesc::Str)
            | (Value::Bytes(_), TypeDesc::Bytes) => true,
            (Value::IntArray(_), TypeDesc::List(e)) => **e == TypeDesc::Int,
            (Value::FloatArray(_), TypeDesc::List(e)) => **e == TypeDesc::Float,
            (Value::List(vs), TypeDesc::List(e)) => vs.iter().all(|v| v.conforms_to(e)),
            (Value::Struct(sv), TypeDesc::Struct(sd)) => {
                sv.fields.len() == sd.fields.len()
                    && sv
                        .fields
                        .iter()
                        .zip(&sd.fields)
                        .all(|((vn, v), (tn, t))| vn == tn && v.conforms_to(t))
            }
            _ => false,
        }
    }

    /// Produces the zero value of a type — used to pad fields absent from a
    /// downgraded quality message (paper §III-B.b: "the remaining entries
    /// are padded with zeroes").
    pub fn zero_of(ty: &TypeDesc) -> Value {
        match ty {
            TypeDesc::Int => Value::Int(0),
            TypeDesc::Float => Value::Float(0.0),
            TypeDesc::Char => Value::Char(0),
            TypeDesc::Str => Value::Str(String::new()),
            TypeDesc::Bytes => Value::Bytes(Vec::new()),
            TypeDesc::List(e) => match **e {
                TypeDesc::Int => Value::IntArray(Vec::new()),
                TypeDesc::Float => Value::FloatArray(Vec::new()),
                _ => Value::List(Vec::new()),
            },
            TypeDesc::Struct(sd) => Value::Struct(StructValue::new(
                sd.name.clone(),
                sd.fields
                    .iter()
                    .map(|(n, t)| (n.clone(), Value::zero_of(t)))
                    .collect(),
            )),
        }
    }

    /// Approximate size in bytes of the value's native (in-memory / PBIO
    /// payload) representation: 8 bytes per int/float, 1 per char, string
    /// length + 4-byte length prefix, 4-byte length prefix per list.
    pub fn native_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Char(_) => 1,
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
            Value::IntArray(v) => 4 + 8 * v.len(),
            Value::FloatArray(v) => 4 + 8 * v.len(),
            Value::List(vs) => 4 + vs.iter().map(Value::native_size).sum::<usize>(),
            Value::Struct(s) => s.fields.iter().map(|(_, v)| v.native_size()).sum(),
        }
    }

    /// Number of scalar leaves in the value (array elements each count).
    pub fn scalar_count(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) | Value::Char(_) | Value::Str(_) => 1,
            Value::Bytes(b) => b.len(),
            Value::IntArray(v) => v.len(),
            Value::FloatArray(v) => v.len(),
            Value::List(vs) => vs.iter().map(Value::scalar_count).sum(),
            Value::Struct(s) => s.fields.iter().map(|(_, v)| v.scalar_count()).sum(),
        }
    }

    /// Extracts an integer, failing with [`ModelError::TypeMismatch`].
    pub fn as_int(&self) -> Result<i64, ModelError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(mismatch("int", other)),
        }
    }

    /// Extracts a float.
    pub fn as_float(&self) -> Result<f64, ModelError> {
        match self {
            Value::Float(x) => Ok(*x),
            other => Err(mismatch("float", other)),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, ModelError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(mismatch("string", other)),
        }
    }

    /// Extracts a byte buffer.
    pub fn as_bytes(&self) -> Result<&[u8], ModelError> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(mismatch("bytes", other)),
        }
    }

    /// Extracts a struct value.
    pub fn as_struct(&self) -> Result<&StructValue, ModelError> {
        match self {
            Value::Struct(s) => Ok(s),
            other => Err(mismatch("struct", other)),
        }
    }

    /// Extracts a packed int array, accepting a generic int list.
    pub fn as_int_array(&self) -> Result<Vec<i64>, ModelError> {
        match self {
            Value::IntArray(v) => Ok(v.clone()),
            Value::List(vs) => vs.iter().map(Value::as_int).collect(),
            other => Err(mismatch("int array", other)),
        }
    }

    /// Extracts a packed float array, accepting a generic float list.
    pub fn as_float_array(&self) -> Result<Vec<f64>, ModelError> {
        match self {
            Value::FloatArray(v) => Ok(v.clone()),
            Value::List(vs) => vs.iter().map(Value::as_float).collect(),
            other => Err(mismatch("float array", other)),
        }
    }
}

fn mismatch(expected: &str, found: &Value) -> ModelError {
    ModelError::TypeMismatch {
        expected: expected.to_string(),
        found: found.type_of().name(),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Char(c) => write!(f, "'{}'", *c as char),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::IntArray(v) => write!(f, "int[{}]", v.len()),
            Value::FloatArray(v) => write!(f, "float[{}]", v.len()),
            Value::List(vs) => write!(f, "list[{}]", vs.len()),
            Value::Struct(s) => {
                write!(f, "{}{{", s.name)?;
                for (i, (n, v)) in s.fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// An owned value converts to `Cow::Owned`, so APIs taking
/// `impl Into<Cow<Value>>` can move it instead of copying it.
impl From<Value> for Cow<'_, Value> {
    fn from(v: Value) -> Self {
        Cow::Owned(v)
    }
}

/// A borrowed value converts to `Cow::Borrowed`.
impl<'a> From<&'a Value> for Cow<'a, Value> {
    fn from(v: &'a Value) -> Self {
        Cow::Borrowed(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_inference_round_trips() {
        let v = Value::struct_of(
            "point",
            vec![
                ("x", Value::Float(1.0)),
                ("y", Value::Float(2.0)),
                ("id", Value::Int(7)),
            ],
        );
        let ty = v.type_of();
        assert!(v.conforms_to(&ty));
        assert_eq!(ty.name(), "point");
    }

    #[test]
    fn packed_arrays_conform_to_lists() {
        let ia = Value::IntArray(vec![1, 2, 3]);
        assert!(ia.conforms_to(&TypeDesc::list_of(TypeDesc::Int)));
        assert!(!ia.conforms_to(&TypeDesc::list_of(TypeDesc::Float)));
        let fa = Value::FloatArray(vec![1.0]);
        assert!(fa.conforms_to(&TypeDesc::list_of(TypeDesc::Float)));
    }

    #[test]
    fn zero_of_conforms() {
        let ty = TypeDesc::struct_of(
            "m",
            vec![
                ("a", TypeDesc::Int),
                ("b", TypeDesc::Str),
                ("c", TypeDesc::list_of(TypeDesc::Float)),
                ("d", TypeDesc::struct_of("n", vec![("x", TypeDesc::Char)])),
            ],
        );
        let z = Value::zero_of(&ty);
        assert!(z.conforms_to(&ty));
        assert_eq!(z.as_struct().unwrap().field("a"), Some(&Value::Int(0)));
    }

    #[test]
    fn native_size_accounts_for_packing() {
        assert_eq!(Value::Int(5).native_size(), 8);
        assert_eq!(Value::IntArray(vec![0; 100]).native_size(), 4 + 800);
        assert_eq!(Value::Str("abc".into()).native_size(), 7);
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Int(3).as_float().is_err());
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)])
                .as_int_array()
                .unwrap(),
            vec![1, 2]
        );
        assert!(Value::Str("x".into()).as_struct().is_err());
    }

    #[test]
    fn struct_field_access() {
        let mut s = StructValue::new("s", vec![("a".into(), Value::Int(1))]);
        assert_eq!(s.field("a"), Some(&Value::Int(1)));
        *s.field_mut("a").unwrap() = Value::Int(9);
        assert_eq!(s.field("a"), Some(&Value::Int(9)));
        assert_eq!(s.field("zz"), None);
    }

    #[test]
    fn scalar_count_counts_elements() {
        let v = Value::struct_of(
            "s",
            vec![("a", Value::IntArray(vec![0; 10])), ("b", Value::Int(1))],
        );
        assert_eq!(v.scalar_count(), 11);
    }

    #[test]
    fn display_renders_structs() {
        let v = Value::struct_of(
            "p",
            vec![("x", Value::Int(1)), ("s", Value::Str("hi".into()))],
        );
        assert_eq!(format!("{v}"), "p{x: 1, s: \"hi\"}");
    }
}
