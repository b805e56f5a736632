//! Good fixture: D8. Enums matched exhaustively (including via `Self::`
//! paths), a wildcard over an integer (not an enum: the only total form),
//! and one reasoned expectation where a wildcard really is the intent.

/// Which congestion controller drives a subflow.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    Pure,
    Cubic,
    Olia,
    Wvegas,
}

impl Driver {
    pub fn short_name(self) -> &'static str {
        match self {
            Self::Pure => "pure",
            Self::Cubic => "cubic",
            Self::Olia | Self::Wvegas => "coupled",
        }
    }
}

pub fn ack_kind(raw: u8) -> &'static str {
    match raw {
        0 => "cum",
        1 => "sack",
        _ => "other",
    }
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "every present and future driver except the delay-based wVegas is window-based; a new delay-based one must opt out here explicitly"
)]
pub fn window_weight(d: Driver) -> f64 {
    match d {
        Driver::Wvegas => 0.5,
        _ => 1.0,
    }
}
