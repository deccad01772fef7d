//! Result-row reporting without external dependencies: where a metric
//! is named **once**. A row type is declared with [`crate::row!`] — one
//! line per field gives the struct field *and* its JSON member, in
//! declaration order — and a printed table is a `const` list of
//! [`Col`]s, header and cell formatter together, rendered by
//! [`markdown`]. Adding a metric is one field line; showing it is one
//! column line. (The build environment is offline, so serde is out of
//! reach; the experiment rows are flat structs of scalars, which this
//! covers completely.)

/// A scalar a row field can hold: how it renders as a JSON value and as
/// a markdown table cell.
pub trait Scalar {
    /// Render as a JSON value token.
    fn json(&self) -> String;
    /// Render as a table cell. Defaults to the JSON token, which is
    /// right for integers and booleans.
    fn cell(&self) -> String {
        self.json()
    }
}

impl Scalar for f64 {
    fn json(&self) -> String {
        // JSON has no NaN/Inf; mirror serde_json and emit null.
        if self.is_finite() {
            format!("{self}")
        } else {
            "null".into()
        }
    }
    fn cell(&self) -> String {
        crate::fmt(*self)
    }
}
macro_rules! plain_scalar {
    ($($t:ty),+) => {$(
        impl Scalar for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )+};
}
plain_scalar!(u64, u32, usize, bool);
impl Scalar for &str {
    fn json(&self) -> String {
        let mut s = String::with_capacity(self.len() + 2);
        s.push('"');
        for c in self.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                c => s.push(c),
            }
        }
        s.push('"');
        s
    }
    fn cell(&self) -> String {
        self.to_string()
    }
}
impl Scalar for String {
    fn json(&self) -> String {
        self.as_str().json()
    }
    fn cell(&self) -> String {
        self.clone()
    }
}

/// One metric over several seeds: its median and range. A cell reads
/// `median [min–max]`; the JSON value is an object of the three.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median (the mean of the middle two of an even count).
    pub median: f64,
    /// The smallest value.
    pub min: f64,
    /// The largest value.
    pub max: f64,
}

impl Spread {
    /// The spread of `values`; NaN throughout when there are none.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = values.into_iter().collect();
        v.sort_by(f64::total_cmp);
        Spread {
            median: crate::compare::median(&v).unwrap_or(f64::NAN),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }
}

impl Scalar for Spread {
    fn json(&self) -> String {
        let mut o = Obj::new();
        o.field("median", &self.median).field("min", &self.min).field("max", &self.max);
        o.finish()
    }
    fn cell(&self) -> String {
        format!("{} [{}–{}]", self.median.cell(), self.min.cell(), self.max.cell())
    }
}

/// Incremental JSON object builder.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Append one field.
    pub fn field(&mut self, name: &str, value: &dyn Scalar) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&name.json());
        self.body.push_str(": ");
        self.body.push_str(&value.json());
        self
    }

    /// Close the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// One experiment result row: a flat struct of [`Scalar`]s declared
/// with [`crate::row!`].
pub trait Row {
    /// Render as a JSON object, fields in declaration order.
    fn to_json(&self) -> String;
}

/// Declare a row type: `row! { /// doc  pub struct Name { /// doc
/// field: Type, … } }` expands to the struct (every field `pub`,
/// `Debug` derived, further attributes passed through) and its [`Row`]
/// impl — so a field can be neither forgotten in the JSON nor emitted
/// out of order.
#[macro_export]
macro_rules! row {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident: $ty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty),+
        }
        impl $crate::report::Row for $name {
            fn to_json(&self) -> String {
                let mut o = $crate::report::Obj::new();
                $( o.field(stringify!($field), &self.$field); )+
                o.finish()
            }
        }
    };
}

/// One column of a printed table: its header and how a row fills it.
pub type Col<R> = (&'static str, fn(&R) -> String);

/// Render `rows` as a markdown table — header line, separator, one line
/// per row — under the column list `cols`.
pub fn markdown<R>(cols: &[Col<R>], rows: &[R]) -> String {
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(cols.iter().map(|(head, _)| head.to_string()).collect());
    out.push_str(&format!("|{}\n", "---|".repeat(cols.len())));
    for r in rows {
        out.push_str(&line(cols.iter().map(|(_, cell)| cell(r)).collect()));
    }
    out
}

/// Render a named array-of-rows section and append it to a results
/// document body.
pub fn push_section<R: Row>(doc: &mut Vec<String>, name: &str, rows: &[R]) {
    let items: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    doc.push(format!("  {}: [\n    {}\n  ]", name.json(), items.join(",\n    ")));
}

/// Close a results document into the final JSON text.
pub fn finish_doc(doc: Vec<String>) -> String {
    format!("{{\n{}\n}}\n", doc.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::row! {
        /// A row of each scalar kind.
        pub struct R {
            name: &'static str,
            x: f64,
            n: u64,
            ok: bool,
        }
    }

    #[test]
    fn renders_flat_object() {
        let r = R { name: "a\"b", x: 1.5, n: 7, ok: true };
        assert_eq!(r.to_json(), r#"{"name": "a\"b", "x": 1.5, "n": 7, "ok": true}"#);
    }

    #[test]
    fn nan_becomes_null() {
        let r = R { name: "x", x: f64::NAN, n: 0, ok: false };
        assert!(r.to_json().contains("\"x\": null"));
    }

    #[test]
    fn spread_is_median_and_range() {
        let s = Spread::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Spread { median: 2.5, min: 1.0, max: 4.0 });
        assert_eq!(s.cell(), "2.50 [1.00–4.00]");
        assert_eq!(s.json(), r#"{"median": 2.5, "min": 1, "max": 4}"#);
        assert_eq!(Spread::of([3.0, 1.0, 2.0]).median, 2.0);
        assert!(Spread::of([]).median.is_nan());
    }

    #[test]
    fn document_shape() {
        let mut doc = Vec::new();
        push_section(&mut doc, "s", &[R { name: "r", x: 0.5, n: 1, ok: true }]);
        let out = finish_doc(doc);
        assert!(out.starts_with("{\n") && out.ends_with("}\n"));
        assert!(out.contains("\"s\": ["));
    }
}
