//! The output check: every event of a timed pass against an expected
//! per-frame verdict class, plus a digest of the classes that committed
//! reference values are compared against.
//!
//! A frame's class is its stream position, claimed SA, verdict kind,
//! cluster and `extraction_failed` flag. Raw float distances are not part
//! of it: with online updates on, the distances of an N-worker run drift
//! in the last digits against any other worker count, while the classes
//! are deterministic for a fixed worker count.

use vprofile::{AnomalyKind, Verdict};
use vprofile_ids::IdsEvent;

/// One frame's verdict class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// A scored frame.
    Scored {
        /// Stream position of the window's first sample.
        stream_pos: u64,
        /// Claimed SA, when extraction succeeded.
        sa: Option<u8>,
        /// Verdict kind: 0 ok, 1 unknown SA, 2 cluster mismatch, 3
        /// threshold exceeded, 4 unscorable.
        kind: u8,
        /// The cluster the verdict names (mismatch: expected·2¹⁶ +
        /// predicted; unknown SA: the SA).
        cluster: u64,
        /// Algorithm 1 could not parse the window.
        extraction_failed: bool,
    },
    /// Consumed while the shard's breaker was open; never a mismatch.
    Degraded {
        /// Stream position of the window's first sample.
        stream_pos: u64,
    },
    /// Lost to a restart, a failed shard or shedding; always a failure.
    Dropped {
        /// Stream position of the window's first sample.
        stream_pos: u64,
    },
}

impl FrameClass {
    /// The class of one pipeline or engine event.
    pub fn of(event: &IdsEvent) -> FrameClass {
        match event {
            IdsEvent::Scored(scored) => {
                let (kind, cluster) = match &scored.verdict {
                    Verdict::Ok { cluster, .. } => (0, cluster.0 as u64),
                    Verdict::Anomaly { kind } => match kind {
                        AnomalyKind::UnknownSa { sa } => (1, u64::from(sa.0)),
                        AnomalyKind::ClusterMismatch {
                            expected,
                            predicted,
                            ..
                        } => (2, ((expected.0 as u64) << 16) | predicted.0 as u64),
                        AnomalyKind::ThresholdExceeded { cluster, .. } => (3, cluster.0 as u64),
                        AnomalyKind::Unscorable => (4, 0),
                    },
                };
                FrameClass::Scored {
                    stream_pos: scored.stream_pos,
                    sa: scored.sa.map(|sa| sa.0),
                    kind,
                    cluster,
                    extraction_failed: scored.extraction_failed,
                }
            }
            IdsEvent::Degraded { stream_pos, .. } => FrameClass::Degraded {
                stream_pos: *stream_pos,
            },
            IdsEvent::Dropped { stream_pos, .. } => FrameClass::Dropped {
                stream_pos: *stream_pos,
            },
        }
    }

    /// Stream position of the window's first sample.
    pub fn stream_pos(self) -> u64 {
        match self {
            FrameClass::Scored { stream_pos, .. }
            | FrameClass::Degraded { stream_pos }
            | FrameClass::Dropped { stream_pos } => stream_pos,
        }
    }

    /// `true` for a scored anomaly or extraction failure.
    pub fn is_anomalous(self) -> bool {
        matches!(self, FrameClass::Scored { kind, .. } if kind != 0)
    }

    /// `true` for a scored frame whose extraction failed.
    pub fn is_extraction_failure(self) -> bool {
        matches!(
            self,
            FrameClass::Scored {
                extraction_failed: true,
                ..
            }
        )
    }
}

/// FNV-1a over the classes of the frames that were not degraded. A
/// degraded frame carries no verdict, so it neither enters the digest nor
/// counts as a mismatch.
pub fn digest(classes: &[FrameClass]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for class in classes {
        match *class {
            FrameClass::Scored {
                stream_pos,
                sa,
                kind,
                cluster,
                extraction_failed,
            } => {
                eat(b"S");
                eat(&stream_pos.to_le_bytes());
                eat(&[sa.map_or(0, |_| 1), sa.unwrap_or(0), kind]);
                eat(&cluster.to_le_bytes());
                eat(&[u8::from(extraction_failed)]);
            }
            FrameClass::Dropped { stream_pos } => {
                eat(b"D");
                eat(&stream_pos.to_le_bytes());
            }
            FrameClass::Degraded { .. } => {}
        }
    }
    hash
}

/// How a timed pass's frames compare with the expected classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Frames expected.
    pub expected: u64,
    /// Frames emitted as `Dropped`.
    pub dropped: u64,
    /// Expected frames with no event, plus events beyond the expected.
    pub missing: u64,
    /// Scored frames whose class differs from the expected one.
    pub mismatched: u64,
    /// Frames consumed in degraded mode (not failures).
    pub degraded: u64,
}

impl Tally {
    /// Frames that count as failed.
    pub fn failed(self) -> u64 {
        self.dropped + self.missing + self.mismatched
    }

    /// Component-wise sum.
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            expected: self.expected + other.expected,
            dropped: self.dropped + other.dropped,
            missing: self.missing + other.missing,
            mismatched: self.mismatched + other.mismatched,
            degraded: self.degraded + other.degraded,
        }
    }
}

/// Compares `actual` against `expected`, merging the two by stream
/// position, so one lost or extra frame costs one failure rather than
/// shifting every frame after it.
pub fn compare(expected: &[FrameClass], actual: &[FrameClass]) -> Tally {
    let mut tally = Tally {
        expected: expected.len() as u64,
        ..Tally::default()
    };
    let (mut want, mut got) = (expected.iter().peekable(), actual.iter().peekable());
    loop {
        match (want.peek(), got.peek()) {
            (None, None) => break,
            (Some(_), None) | (None, Some(_)) => {
                tally.missing += 1;
                want.next();
                got.next();
            }
            (Some(w), Some(g)) if w.stream_pos() < g.stream_pos() => {
                tally.missing += 1;
                want.next();
            }
            (Some(w), Some(g)) if w.stream_pos() > g.stream_pos() => {
                tally.missing += 1;
                got.next();
            }
            (Some(&&w), Some(&&g)) => {
                match g {
                    FrameClass::Dropped { .. } => tally.dropped += 1,
                    FrameClass::Degraded { .. } => tally.degraded += 1,
                    FrameClass::Scored { .. } if g != w => tally.mismatched += 1,
                    FrameClass::Scored { .. } => {}
                }
                want.next();
                got.next();
            }
        }
    }
    tally
}

/// Digests committed for `(workload, seed)` pairs whose expected classes
/// come from a two-worker reference pass. A pair not listed here is checked
/// against the reference pass alone.
pub const COMMITTED_DIGESTS: &str = include_str!("../digests.txt");

/// The committed digest for `(workload, seed)`, if any. Lines read
/// `<workload> <seed> <frames> <digest as 16 hex digits>`; `#` starts a
/// comment.
pub fn committed_digest(workload: &str, seed: u64) -> Option<(u64, u64)> {
    COMMITTED_DIGESTS.lines().find_map(|line| {
        let line = line.split('#').next().unwrap_or("");
        let mut fields = line.split_ascii_whitespace();
        let name = fields.next()?;
        let line_seed: u64 = fields.next()?.parse().ok()?;
        let frames: u64 = fields.next()?.parse().ok()?;
        let value = u64::from_str_radix(fields.next()?, 16).ok()?;
        (name == workload && line_seed == seed).then_some((frames, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::ClusterId;
    use vprofile_can::SourceAddress;
    use vprofile_ids::ScoredEvent;

    fn ok(pos: u64, distance: f64) -> IdsEvent {
        IdsEvent::Scored(ScoredEvent {
            stream_pos: pos,
            sa: Some(SourceAddress(0x12)),
            verdict: Verdict::Ok {
                cluster: ClusterId(2),
                distance,
            },
            extraction_failed: false,
            retrain_due: false,
        })
    }

    fn classes(events: &[IdsEvent]) -> Vec<FrameClass> {
        events.iter().map(FrameClass::of).collect()
    }

    #[test]
    fn digest_ignores_float_noise_but_catches_a_flipped_verdict() {
        let base = [ok(0, 1.25), ok(9_000, 3.5), ok(18_000, 0.75)];
        let noisy = [
            ok(0, 1.25 + 1e-12),
            ok(9_000, 3.5 - 4e-13),
            ok(18_000, 0.75),
        ];
        assert_eq!(digest(&classes(&base)), digest(&classes(&noisy)));
        assert_eq!(compare(&classes(&base), &classes(&noisy)).failed(), 0);

        let mut flipped = base.clone();
        flipped[1] = IdsEvent::Scored(ScoredEvent {
            stream_pos: 9_000,
            sa: Some(SourceAddress(0x12)),
            verdict: Verdict::Anomaly {
                kind: AnomalyKind::ThresholdExceeded {
                    cluster: ClusterId(2),
                    distance: 3.5,
                    limit: 3.4,
                },
            },
            extraction_failed: false,
            retrain_due: false,
        });
        assert_ne!(digest(&classes(&base)), digest(&classes(&flipped)));
        let tally = compare(&classes(&base), &classes(&flipped));
        assert_eq!((tally.mismatched, tally.failed()), (1, 1));
    }

    #[test]
    fn degraded_frames_are_counted_apart_and_dropped_or_missing_ones_fail() {
        let expected = classes(&[ok(0, 1.0), ok(10, 1.0), ok(20, 1.0)]);
        let actual = classes(&[
            IdsEvent::Degraded {
                stream_pos: 0,
                shard: 1,
                reason: vprofile_ids::DegradeReason::ExtractionFailures,
            },
            IdsEvent::Dropped {
                stream_pos: 10,
                shard: 0,
                reason: vprofile_ids::DropReason::WorkerRestart,
            },
        ]);
        let tally = compare(&expected, &actual);
        assert_eq!(
            tally,
            Tally {
                expected: 3,
                dropped: 1,
                missing: 1,
                mismatched: 0,
                degraded: 1
            }
        );
        assert_eq!(tally.failed(), 2);

        // A frame lost mid-stream costs one failure, not every later frame.
        let gap = [expected[0], expected[2]];
        let tally = compare(&expected, &gap);
        assert_eq!((tally.missing, tally.mismatched), (1, 0));
        assert_eq!(
            digest(&actual[..1]),
            digest(&[]),
            "degraded frames are not digested"
        );
    }

    #[test]
    fn committed_digest_lines_parse() {
        for line in COMMITTED_DIGESTS.lines() {
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let fields: Vec<&str> = body.split_ascii_whitespace().collect();
            assert_eq!(fields.len(), 4, "malformed digest line {line:?}");
            let seed = fields[1].parse().expect("seed");
            assert!(committed_digest(fields[0], seed).is_some(), "{line:?}");
        }
    }
}
