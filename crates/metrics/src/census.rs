//! [`census!`](crate::census!): one declaration per counter.

/// Declares a census: a struct of `pub` `u64` counters that is summed
/// over routers, differenced against a snapshot, read by name and
/// written as JSON. The input is the field list, each with its doc
/// comment; the macro derives `NAMES`, `absorb`, `delta_since`, `get`
/// and `write_json` from it, all in declaration order, so adding a
/// counter is a one-line edit.
#[macro_export]
macro_rules! census {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $name {
            /// The counter names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Adds `other` into this census, counter by counter.
            pub fn absorb(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            /// The counts since `earlier`, counter by counter.
            pub fn delta_since(&self, earlier: &Self) -> Self {
                Self {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Reads one counter by name (`None` for an unknown name).
            pub fn get(&self, name: &str) -> Option<u64> {
                match name {
                    $(stringify!($field) => Some(self.$field),)*
                    _ => None,
                }
            }

            /// Appends the census as one JSON object, keys in
            /// declaration order.
            pub fn write_json(&self, out: &mut String) {
                $crate::json::push_u64_object(out, Self::NAMES, &[$(self.$field),*]);
            }
        }
    };
}
