//! Thin helpers over the workspace's JSON tree (`serde::Value`): the
//! benchmark builds and reads its reports as plain trees, no derives.

pub use serde::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::F64(x)
}

pub fn int(x: i64) -> Value {
    if x >= 0 {
        Value::U64(x as u64)
    } else {
        Value::I64(x)
    }
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.field(key).ok()
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(as_f64)
}

pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match get(v, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(e) => e,
        _ => &[],
    }
}

pub fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        _ => &[],
    }
}

pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(s).map_err(|e| e.to_string())
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serialises")
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_round_trip_compact_and_pretty() {
        let v = obj(vec![
            ("name", text("core.algorithm.round_ms_p50")),
            ("value", num(1.2034)),
            ("n", Value::U64(7)),
            ("ok", Value::Bool(true)),
            ("series", Value::Seq(vec![num(0.5), num(-2.25)])),
        ]);
        for s in [compact(&v), pretty(&v)] {
            assert_eq!(parse(&s).unwrap(), v);
        }
        assert_eq!(get_f64(&v, "value"), Some(1.2034));
        assert_eq!(get_f64(&v, "n"), Some(7.0));
        assert_eq!(get_str(&v, "name"), Some("core.algorithm.round_ms_p50"));
        assert_eq!(get(&v, "ok"), Some(&Value::Bool(true)));
        assert_eq!(items(get(&v, "series").unwrap()).len(), 2);
        assert!(get(&v, "missing").is_none());
        assert!(parse("{\"a\": }").is_err());
    }
}
