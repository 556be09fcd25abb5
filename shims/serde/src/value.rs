//! The JSON-like data model the serde shim serializes through.

/// A JSON-shaped tree value. Object keys preserve insertion order so
/// serialized output is deterministic and mirrors field declaration
/// order, as serde_json does for structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for `None` and non-finite floats).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer (JSON number without fraction or exponent).
    Int(i64),
    /// An integer above `i64::MAX` — a `u64` digest or seed with its
    /// top bit set, which `Int` cannot hold and `Float` would round.
    /// Anything that fits `Int` is an `Int`, never this.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns true if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrows the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as `i64` (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric view as `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric view as `f64` (integers widen losslessly enough here).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrows the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the elements if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the key/value pairs if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up a key in an `Object` (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|pairs| obj_get(pairs, key))
    }
}

/// Looks up `key` in an ordered object pair list.
pub fn obj_get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}
