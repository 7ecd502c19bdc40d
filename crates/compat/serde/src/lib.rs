#![forbid(unsafe_code)]
//! Offline stand-in for `serde`, scoped to what this workspace needs.
//!
//! The container this repository builds in has no crates.io access, so the
//! real serde (and its derive machinery) cannot be compiled. This shim keeps
//! the same import surface — `use serde::{Serialize, Deserialize}` — but the
//! traits are backed by a concrete JSON [`Value`] model instead of serde's
//! generic serializer/deserializer pair. Structs and enums opt in with the
//! [`impl_serde_struct!`] / [`impl_serde_unit_enum!`] macros instead of
//! `#[derive(..)]`.
//!
//! Objects use a `BTreeMap`, so every serialized form is *canonical*: field
//! order in the source struct (or in parsed JSON text) never changes the
//! output bytes. The sweep-engine cache keys rely on this.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Numbers keep an integer/float distinction so `u64` fields
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (no decimal point in the serialized form).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with canonically (lexicographically) ordered keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Borrow as an object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (ints widen to f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats with zero fraction convert).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        }
    }
}

macro_rules! impl_value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Int(v as i64) }
        }
    )*};
}
impl_value_from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Serialization/deserialization error with a breadcrumb context path.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// New error from a message.
    pub fn msg(m: impl Into<String>) -> Error {
        Error { msg: m.into() }
    }

    /// Prefix the error with a field/element context.
    pub fn context(self, ctx: &str) -> Error {
        Error {
            msg: format!("{ctx}: {}", self.msg),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Convert a value into the JSON model.
pub trait Serialize {
    /// The JSON form of `self`.
    fn to_value(&self) -> Value;

    /// The JSON form of `self`, borrowed when `self` already is one. The
    /// writers read through this, so serializing a [`Value`] never
    /// deep-copies it first.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Rebuild a value from the JSON model.
pub trait Deserialize: Sized {
    /// Parse `self` out of a JSON value.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| Error::msg(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        // Values above i64::MAX do not occur in this workspace.
        Value::Int(*self as i64)
    }
}
impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| Error::msg("expected u64"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::msg("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| Error::msg("expected number"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg("expected string"))
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// --------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg("expected array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| T::from_value(e).map_err(|e| e.context(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v.as_array().ok_or_else(|| Error::msg("expected array"))?;
        if arr.len() != N {
            return Err(Error::msg(format!("expected array of {N}")));
        }
        let mut out = [T::default(); N];
        for (slot, e) in out.iter_mut().zip(arr) {
            *slot = T::from_value(e)?;
        }
        Ok(out)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v.as_array().ok_or_else(|| Error::msg("expected pair"))?;
        if arr.len() != 2 {
            return Err(Error::msg("expected 2-element array"));
        }
        Ok((A::from_value(&arr[0])?, B::from_value(&arr[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}
impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v.as_array().ok_or_else(|| Error::msg("expected triple"))?;
        if arr.len() != 3 {
            return Err(Error::msg("expected 3-element array"));
        }
        Ok((
            A::from_value(&arr[0])?,
            B::from_value(&arr[1])?,
            C::from_value(&arr[2])?,
        ))
    }
}

impl<T: Serialize> Serialize for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<T: Deserialize> Deserialize for BTreeMap<String, T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::msg("expected object"))?
            .iter()
            .map(|(k, e)| T::from_value(e).map(|t| (k.clone(), t)))
            .collect()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

// ------------------------------------------------------------------- macros

/// Implement `Serialize`/`Deserialize` for a struct with named fields, as a
/// JSON object keyed by field name (the replacement for `#[derive(..)]`).
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                let mut m = ::std::collections::BTreeMap::new();
                $(m.insert(stringify!($field).to_string(), $crate::Serialize::to_value(&self.$field));)+
                $crate::Value::Object(m)
            }
        }
        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let obj = v.as_object().ok_or_else(|| {
                    $crate::Error::msg(concat!("expected object for ", stringify!($ty)))
                })?;
                ::std::result::Result::Ok(Self {
                    $($field: $crate::Deserialize::from_value(
                        obj.get(stringify!($field)).unwrap_or(&$crate::Value::Null),
                    )
                    .map_err(|e| e.context(concat!(stringify!($ty), ".", stringify!($field))))?,)+
                })
            }
        }
    };
}

/// Implement `Serialize`/`Deserialize` for a fieldless enum, as the variant
/// name string (matching serde's external tagging of unit variants).
#[macro_export]
macro_rules! impl_serde_unit_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                let s = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                };
                $crate::Value::Str(s.to_string())
            }
        }
        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => ::std::result::Result::Ok(<$ty>::$variant),)+
                    _ => ::std::result::Result::Err($crate::Error::msg(concat!(
                        "expected variant of ",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_keys_are_canonical() {
        let mut a = BTreeMap::new();
        a.insert("zeta".to_string(), Value::Int(1));
        a.insert("alpha".to_string(), Value::Int(2));
        let keys: Vec<&String> = a.keys().collect();
        assert_eq!(keys, ["alpha", "zeta"]);
    }

    #[test]
    fn option_roundtrip() {
        let v: Option<f64> = Some(1.5);
        assert_eq!(Option::<f64>::from_value(&v.to_value()).unwrap(), v);
        let n: Option<f64> = None;
        assert_eq!(Option::<f64>::from_value(&n.to_value()).unwrap(), n);
    }

    #[test]
    fn a_value_serializes_borrowed() {
        let v = Value::Array(vec![Value::Int(1)]);
        assert!(matches!(v.as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!((&&v).as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(1.5f64.as_value(), Cow::Owned(Value::Float(f)) if f == 1.5));
    }

    #[test]
    fn tuple_and_array_roundtrip() {
        let t = (1.0f64, 2.0f64);
        assert_eq!(<(f64, f64)>::from_value(&t.to_value()).unwrap(), t);
        let a = [3usize, 4, 5];
        assert_eq!(<[usize; 3]>::from_value(&a.to_value()).unwrap(), a);
    }
}
