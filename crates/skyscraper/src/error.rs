//! Error types shared by every broadcasting scheme in the workspace.

use core::fmt;

/// Reasons a broadcasting scheme cannot be instantiated for a given system
/// configuration.
///
/// The paper itself runs into these: "PB and PPB do not work if the server
/// bandwidth is less than 90 Mbits/sec (i.e., α becomes less than one)"
/// (§5.1) — that situation surfaces here as [`SchemeError::AlphaTooSmall`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeError {
    /// The server bandwidth is too small to give each video even one
    /// dedicated channel (SB needs `K = ⌊B/(b·M)⌋ ≥ 1`).
    InsufficientBandwidth {
        /// Channels per video that the configuration yields.
        channels_per_video: usize,
        /// Minimum required by the scheme.
        required: usize,
    },
    /// The pyramid geometric factor α = B/(b·M·K) came out ≤ 1, so the
    /// fragment sizes would not increase and the scheme's continuity
    /// condition cannot hold.
    AlphaTooSmall {
        /// The computed α.
        alpha: f64,
    },
    /// A width value that is not a member of the broadcast series was
    /// requested. Capping at a non-member value would merge transmission
    /// groups of equal parity, breaking the two-loader schedule of §3.3.
    InvalidWidth {
        /// The offending width.
        width: u64,
        /// The largest series member not exceeding the request, offered as
        /// a fix-up.
        nearest_below: u64,
    },
    /// A configuration parameter was non-positive or non-finite.
    InvalidConfig {
        /// Human-readable description of the offending field.
        what: &'static str,
    },
    /// The derived number of segments per video exceeds what the
    /// implementation supports (series values overflow `u64` far beyond any
    /// physical configuration; this guards the arithmetic).
    TooManySegments {
        /// The requested segment count.
        requested: usize,
        /// Supported maximum.
        max: usize,
    },
    /// A request named a title outside the server's catalog.
    UnknownTitle {
        /// The title the request named.
        title: usize,
        /// How many titles the server carries (valid ids are
        /// `0..titles`).
        titles: usize,
    },
    /// Two metric snapshots of one run could not be merged: the same
    /// family or series carried two instrument kinds or histogram shapes.
    MetricMerge {
        /// What clashed, naming the series.
        what: String,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::InsufficientBandwidth {
                channels_per_video,
                required,
            } => write!(
                f,
                "server bandwidth yields {channels_per_video} channel(s) per video, \
                 scheme requires at least {required}"
            ),
            SchemeError::AlphaTooSmall { alpha } => write!(
                f,
                "pyramid geometric factor α = {alpha:.4} ≤ 1; increase server bandwidth \
                 (the paper notes PB/PPB need B ≥ ~90 Mb/s at M=10, b=1.5)"
            ),
            SchemeError::InvalidWidth {
                width,
                nearest_below,
            } => write!(
                f,
                "width {width} is not a broadcast-series value; nearest valid width below \
                 is {nearest_below}"
            ),
            SchemeError::InvalidConfig { what } => {
                write!(f, "invalid system configuration: {what}")
            }
            SchemeError::TooManySegments { requested, max } => {
                write!(
                    f,
                    "{requested} segments requested, implementation supports {max}"
                )
            }
            SchemeError::UnknownTitle { title, titles } => write!(
                f,
                "a request names title {title}, but the server carries titles 0..{titles}"
            ),
            SchemeError::MetricMerge { what } => write!(f, "metric merge failed: {what}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// Workspace-wide result alias.
pub type Result<T, E = SchemeError> = core::result::Result<T, E>;
