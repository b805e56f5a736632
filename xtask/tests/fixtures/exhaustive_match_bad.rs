//! Bad fixture: D8, `wildcard_enum_match_arm` from `[workspace.lints]`: a
//! `_` arm and a binding arm, each silently absorbing a new variant.

/// Which congestion controller drives a subflow.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    Pure,
    Cubic,
    Olia,
    Wvegas,
}

pub fn short_name(d: Driver) -> &'static str {
    match d {
        Driver::Pure => "pure",
        Driver::Cubic => "cubic",
        _ => "coupled",
    }
}

pub fn gain(d: Driver) -> f64 {
    match d {
        Driver::Pure => 1.0,
        other => f64::from(u8::from(matches!(other, Driver::Olia | Driver::Wvegas))),
    }
}
