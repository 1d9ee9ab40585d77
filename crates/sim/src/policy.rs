//! The one vocabulary every pluggable policy enum shares.
//!
//! Each of the simulator's policy knobs (drive scheduling, fabric topology
//! and contention, faults, redundancy, arrivals, admission, and the three
//! cache dimensions) is a fieldless enum whose variants have a stable
//! lower-case name used by CLI filters, reports, and cell seeds.
//! [`policy_enum!`](crate::policy_enum) generates that surface once: the enum
//! itself (with its docs and `#[default]` variant), `ALL`, `name`, `parse`,
//! `Display`, and a parse-error message listing the valid names.

/// Defines a policy enum and its name vocabulary.
///
/// ```
/// ddio_sim::policy_enum! {
///     /// How eagerly to water the plants.
///     pub enum Watering: "watering policy" {
///         /// Never.
///         Never = "never",
///         /// Every morning.
///         #[default]
///         Daily = "daily",
///     }
/// }
///
/// assert_eq!(Watering::ALL, [Watering::Never, Watering::Daily]);
/// assert_eq!(Watering::default(), Watering::Daily);
/// assert_eq!(Watering::parse("never"), Some(Watering::Never));
/// assert_eq!(Watering::Daily.to_string(), "daily");
/// assert_eq!(
///     Watering::from_name("weekly").unwrap_err(),
///     "unknown watering policy \"weekly\" (expected never or daily)"
/// );
/// ```
///
/// The generated items are:
///
/// * `ALL`: every variant, in declaration order (used by sweeps and CLI
///   listings);
/// * `name()`: the variant's lower-case name;
/// * `parse(s)`: the inverse of `name()`;
/// * `from_name(s)`: `parse`, with an error message naming the valid
///   choices;
/// * `expected()`: the valid names as an English list (`"a, b, or c"`);
/// * `Display`, which prints `name()`.
#[macro_export]
macro_rules! policy_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $what:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant,
            )+
        }

        impl $name {
            /// Every variant, in declaration order (used by sweeps and CLI
            /// listings).
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// The lower-case name used by CLI filters and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Parses a name (the inverse of `name`).
            pub fn parse(s: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|p| p.name() == s)
            }

            /// [`parse`](Self::parse), with an error that lists the valid
            /// names.
            pub fn from_name(s: &str) -> Result<$name, String> {
                $name::parse(s).ok_or_else(|| {
                    format!(concat!("unknown ", $what, " {:?} (expected {})"), s, $name::expected())
                })
            }

            /// The valid names as an English list, e.g. `"a, b, or c"`.
            pub fn expected() -> String {
                $crate::policy::english_list(&$name::ALL.map($name::name))
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

/// Joins names as an English list: `"a"`, `"a or b"`, `"a, b, or c"`.
pub fn english_list(names: &[&str]) -> String {
    match names {
        [] => String::new(),
        [one] => (*one).to_owned(),
        [a, b] => format!("{a} or {b}"),
        [rest @ .., last] => format!("{}, or {last}", rest.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::english_list;

    #[test]
    fn english_lists_use_an_oxford_comma() {
        assert_eq!(english_list(&[]), "");
        assert_eq!(english_list(&["fifo"]), "fifo");
        assert_eq!(english_list(&["ni-only", "link"]), "ni-only or link");
        assert_eq!(
            english_list(&["none", "mirror", "parity"]),
            "none, mirror, or parity"
        );
    }
}
