//! The one vocabulary every pluggable policy enum shares.
//!
//! Each of the simulator's policy knobs (drive scheduling, fabric topology
//! and contention, faults, redundancy, arrivals, admission, and the three
//! cache dimensions) is a fieldless enum whose variants have a stable
//! lower-case name used by CLI filters, reports, and cell seeds.
//! [`policy_enum!`](crate::policy_enum) generates that surface once: the enum
//! itself (with its docs and `#[default]` variant), `ALL`, `name`, `parse`,
//! and `Display`.

/// Defines a policy enum and its name vocabulary.
///
/// ```
/// ddio_sim::policy_enum! {
///     /// How eagerly to water the plants.
///     pub enum Watering {
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
/// assert_eq!(Watering::parse("weekly"), None);
/// ```
///
/// The generated items are:
///
/// * `ALL`: every variant, in declaration order (used by sweeps and CLI
///   listings);
/// * `name()`: the variant's lower-case name;
/// * `parse(s)`: the inverse of `name()`;
/// * `Display`, which prints `name()`.
#[macro_export]
macro_rules! policy_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
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
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}
