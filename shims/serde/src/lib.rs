//! Offline stand-in for the `serde` crate.
//!
//! The real serde is a visitor-based framework; this shim keeps the
//! same *spelling* at use sites (`use serde::{Deserialize, Serialize}`
//! plus `#[derive(Serialize, Deserialize)]`) but routes everything
//! through a small JSON-like [`value::Value`] tree: serializing
//! converts a type to a `Value`, deserializing reads one back. The
//! companion `serde_json` shim renders and parses that tree as JSON
//! with serde-compatible conventions (struct → object, unit enum
//! variant → string, data-carrying variant → single-key object,
//! non-finite floats → null).
//!
//! Only the surface this workspace uses is implemented. Notably the
//! derive macros reject generic types and `#[serde(...)]` attributes.

pub mod value;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub use value::Value;

/// Error raised when a [`Value`] does not match the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde shim error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reads `Self` back from a [`Value`], failing on shape mismatch.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---- primitive impls ------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::custom(format!("integer {n} out of range"))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(Error::custom(format!(
                        "expected integer, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        if *self <= i64::MAX as u64 {
            Value::Int(*self as i64)
        } else {
            Value::UInt(*self)
        }
    }
}

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            Value::Int(n) => Err(Error::custom(format!("negative integer {n} for u64"))),
            Value::UInt(n) => Ok(*n),
            // Journals written before `UInt` existed carry such values
            // rounded through `f64`; they still load (saturating).
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Ok(*f as u64),
            other => Err(Error::custom(format!("expected u64, got {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            // serde_json writes non-finite floats as null.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::custom(format!("expected float, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
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
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
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
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::custom(format!("expected char, got {other:?}"))),
        }
    }
}

// ---- composite impls ------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let expect = [$($idx),+].len();
                        if items.len() != expect {
                            return Err(Error::custom(format!(
                                "expected {expect}-tuple, got array of {}",
                                items.len()
                            )));
                        }
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::custom(format!(
                        "expected tuple array, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
