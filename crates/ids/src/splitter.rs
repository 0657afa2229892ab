//! Raw-chunk frame splitting for the parallel router.
//!
//! The [`FrameSplitter`] runs the framer's boundary state machine
//! ([`Boundaries`], shared with [`crate::StreamFramer`]) over borrowed
//! (`Arc`) chunks and emits each frame as a [`RawSegment`]: zero-copy
//! spans of the chunks the frame touches, plus an owned copy only for
//! frames spanning three or more chunks. A segment *is* the frame's
//! window — `head ++ mid ++ tail` at `base` is bit-identical to the
//! window `StreamFramer` emits for the same frame — so a worker scores it
//! as is: it borrows the tail when the frame closed in the chunk it
//! started in and copies the parts together otherwise. The two framers
//! differ only in where retained samples live: `StreamFramer` copies them
//! into an owned buffer, the splitter keeps the previous chunk's `Arc`.
//!
//! Routing determinism: the SA peek always decodes the frame from its SOF
//! on, inside exactly the closed segment — never a prefix of an unclosed
//! frame — so the routed shard for every frame is a pure function of the
//! stream, independent of how the stream was chunked. The peek borrows
//! whichever part holds the arbitration prefix; only prefixes that
//! straddle a chunk boundary are assembled (once, into a reusable scratch)
//! before decoding.

use std::ops::Range;
use std::sync::Arc;

use vprofile::{EdgeSetExtractor, VProfileConfig};

use crate::framer::{Boundaries, Retained};

/// A borrowed range of a shared sample chunk.
#[derive(Debug, Clone)]
struct ChunkSpan {
    /// The chunk the span borrows; shared by every segment touching it.
    chunk: Arc<[f64]>,
    /// Start of the range (inclusive).
    start: usize,
    /// End of the range (exclusive).
    end: usize,
}

impl ChunkSpan {
    /// The spanned samples.
    fn as_slice(&self) -> &[f64] {
        self.chunk.get(self.start..self.end).unwrap_or(&[])
    }

    /// Samples in the span.
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One frame's window, as routed by the splitter: an owned `head` only
/// for frames spanning three or more chunks, a zero-copy `mid` span of
/// the previous chunk when the frame straddles a boundary, and the
/// in-chunk `tail` span. `head ++ mid ++ tail` is the window and `base`
/// the absolute stream position of its first sample.
#[derive(Debug, Clone)]
pub(crate) struct RawSegment {
    /// Samples owned from chunks older than `mid` (only frames spanning
    /// three or more chunks pay this copy). Almost always empty.
    head: Vec<f64>,
    /// Retained span of the previous chunk (trimmed idle lead-in and any
    /// frame body), shared zero-copy; `None` when the frame closed in the
    /// chunk it started in.
    mid: Option<ChunkSpan>,
    /// The in-chunk range; its last sample is the one that completed the
    /// closing idle gap (empty for the flushed frame at end of stream).
    tail: ChunkSpan,
    /// Absolute stream position of the window's first sample.
    pub base: u64,
    /// Claimed source address peeked from the arbitration field, `0xFF`
    /// (the J1939 global address) when it cannot be decoded.
    pub sa: u8,
}

impl RawSegment {
    /// The whole window, borrowed when it lies in one part (the frame
    /// closed in the chunk it started in) and copied into `scratch`
    /// otherwise.
    // xtask: hot-path
    pub fn window<'a>(&'a self, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        self.slice(0..usize::MAX, scratch)
    }

    /// The window samples in `range` (clamped to the window), borrowed
    /// when they lie in one part and copied into `scratch` otherwise.
    // xtask: hot-path
    fn slice<'a>(&'a self, range: Range<usize>, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        let mut first: &[f64] = &[];
        let mut copied = false;
        let mut offset = 0usize;
        let mid = self.mid.as_ref().map_or(&[][..], ChunkSpan::as_slice);
        for part in [self.head.as_slice(), mid, self.tail.as_slice()] {
            let start = offset;
            offset += part.len();
            let lo = range.start.clamp(start, offset) - start;
            let hi = range.end.clamp(start, offset) - start;
            let piece = part.get(lo..hi).unwrap_or(&[]);
            if piece.is_empty() {
                continue;
            }
            if first.is_empty() {
                first = piece;
                continue;
            }
            if !copied {
                scratch.clear();
                scratch.extend_from_slice(first);
                copied = true;
            }
            scratch.extend_from_slice(piece);
        }
        if copied {
            scratch
        } else {
            first
        }
    }
}

/// The splitter's retained samples: an owned carry from chunks before
/// the previous one, then the previous chunk's retained span, zero-copy.
#[derive(Debug, Default)]
struct SpanCarry {
    /// Owned samples from chunks before `prev` (a frame spanning three or
    /// more chunks).
    carry: Vec<f64>,
    /// Retained span of the previous chunk, held via its `Arc`.
    prev: Option<ChunkSpan>,
}

impl Retained for SpanCarry {
    fn len(&self) -> usize {
        self.carry.len() + self.prev.as_ref().map_or(0, ChunkSpan::len)
    }

    fn trim_front(&mut self, n: usize) {
        let from_carry = n.min(self.carry.len());
        self.carry.drain(..from_carry);
        if let Some(prev) = &mut self.prev {
            prev.start += (n - from_carry).min(prev.len());
            if prev.len() == 0 {
                self.prev = None;
            }
        }
    }
}

impl SpanCarry {
    /// Hands everything retained off as the front of a segment ending in
    /// `tail`, and peeks the segment's SA from its SOF on.
    // xtask: hot-path
    fn seal(&mut self, tail: ChunkSpan, base: u64, sof: usize, peek: &mut SaPeek) -> RawSegment {
        let mut segment = RawSegment {
            head: std::mem::take(&mut self.carry),
            mid: self.prev.take(),
            tail,
            base,
            sa: 0xFF,
        };
        segment.sa = peek.sa(&segment, sof);
        segment
    }
}

/// The shard-routing probe: decodes a segment's claimed SA from the
/// arbitration prefix of its window.
#[derive(Debug)]
struct SaPeek {
    peeker: EdgeSetExtractor,
    /// Samples read from SOF on. The peek walk reads at most the frame's
    /// arbitration prefix: 31 unstuffed bits plus worst-case stuffing
    /// stay under 41 sampled bits, and resync only ever moves the cursor
    /// backward, so a 64-bit cap can never change the walk's outcome. It
    /// bounds the assembly of prefixes that straddle a chunk boundary.
    cap: usize,
    /// Reusable assembly buffer for straddling prefixes; grows to the
    /// largest prefix and stays.
    scratch: Vec<f64>,
}

impl SaPeek {
    /// The SA claimed by the frame whose SOF sits `sof` samples into the
    /// segment's window, `0xFF` when it cannot be decoded.
    // xtask: hot-path
    fn sa(&mut self, segment: &RawSegment, sof: usize) -> u8 {
        let prefix = segment.slice(sof..sof.saturating_add(self.cap), &mut self.scratch);
        self.peeker.peek_sa(prefix).map_or(0xFF, |sa| sa.raw())
    }
}

/// Splits raw sample chunks into per-frame [`RawSegment`]s with the
/// framer's [`Boundaries`] state machine, retaining samples zero-copy.
#[derive(Debug)]
pub(crate) struct FrameSplitter {
    /// The boundary state machine shared with `StreamFramer`.
    bounds: Boundaries,
    /// Samples retained from earlier chunks.
    retained: SpanCarry,
    /// The SA probe run on every closed segment.
    peek: SaPeek,
}

impl FrameSplitter {
    /// Creates a splitter with the same geometry as
    /// `StreamFramer::new(config.bit_width_samples, config.bit_threshold)`.
    ///
    /// # Panics
    ///
    /// Panics if the bit is narrower than 2 samples.
    pub fn new(config: VProfileConfig) -> Self {
        FrameSplitter {
            bounds: Boundaries::new(config.bit_width_samples, config.bit_threshold),
            retained: SpanCarry::default(),
            peek: SaPeek {
                cap: (64.0 * config.bit_width_samples) as usize,
                peeker: EdgeSetExtractor::new(config),
                scratch: Vec::new(),
            },
        }
    }

    /// Splits one chunk, appending a [`RawSegment`] to `out` for every
    /// frame that closes inside it. Segments borrow `chunk` via `Arc`;
    /// cross-chunk state is carried internally.
    // xtask: hot-path
    pub fn split_chunk(&mut self, chunk: &Arc<[f64]>, out: &mut Vec<RawSegment>) {
        let peek = &mut self.peek;
        let keep = self
            .bounds
            .scan_chunk(chunk, &mut self.retained, |retained, closed| {
                let tail = ChunkSpan {
                    // xtask: allow(hot-path-alloc): Arc refcount bump shares the chunk, no heap allocation
                    chunk: Arc::clone(chunk),
                    start: closed.span.start,
                    end: closed.span.end,
                };
                out.push(retained.seal(tail, closed.base, closed.sof, peek));
            });
        // Retain this chunk's suffix zero-copy; a still-retained previous
        // chunk (the open frame now spans a third chunk) folds into the
        // owned carry first, preserving sample order.
        if keep < chunk.len() {
            if let Some(prev) = self.retained.prev.take() {
                self.retained.carry.extend_from_slice(prev.as_slice());
            }
            self.retained.prev = Some(ChunkSpan {
                // xtask: allow(hot-path-alloc): Arc::clone bumps a refcount, it does not allocate
                chunk: Arc::clone(chunk),
                start: keep,
                end: chunk.len(),
            });
        }
    }

    /// Flushes a trailing open frame, whose closing gap never arrived, as
    /// a segment of everything retained. `None` when idle.
    // xtask: cold
    pub fn flush(&mut self) -> Option<RawSegment> {
        let (base, sof) = self.bounds.flush(self.retained.len())?;
        let tail = ChunkSpan {
            chunk: Arc::from(Vec::new()),
            start: 0,
            end: 0,
        };
        Some(self.retained.seal(tail, base, sof, &mut self.peek))
    }

    /// Total samples consumed so far.
    #[cfg(test)]
    pub fn samples_consumed(&self) -> u64 {
        self.bounds.consumed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamFramer;

    fn stream(idle: usize, bits: &[bool]) -> Vec<f64> {
        let mut out = vec![100.0; idle];
        for &b in bits {
            let level = if b { 100.0 } else { 3000.0 };
            out.extend(std::iter::repeat_n(level, 4));
        }
        out
    }

    fn config() -> VProfileConfig {
        // 2 MS/s at 500 kbit/s → 4 samples/bit, matching the test streams.
        let adc = vprofile_analog::AdcConfig {
            sample_rate_hz: 2e6,
            ..vprofile_analog::AdcConfig::vehicle_b()
        };
        VProfileConfig::for_adc(&adc, 500_000)
    }

    /// Splits `s` in `chunk_len`-sample chunks, flushing at the end.
    fn split(s: &[f64], chunk_len: usize) -> (FrameSplitter, Vec<RawSegment>) {
        let mut splitter = FrameSplitter::new(config());
        let mut segments = Vec::new();
        for chunk in s.chunks(chunk_len) {
            let arc: Arc<[f64]> = chunk.to_vec().into();
            splitter.split_chunk(&arc, &mut segments);
        }
        segments.extend(splitter.flush());
        (splitter, segments)
    }

    #[test]
    fn segments_are_the_reference_windows_for_every_chunking() {
        let bits = [false, true, false, false, true, true, false];
        let mut s = Vec::new();
        for _ in 0..4 {
            s.extend(stream(40, &bits));
        }
        s.extend(stream(7, &[false, true, false]));
        // Note: the stream deliberately ends mid-frame to exercise flush.

        let config = config();
        let mut reference = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let mut expected = reference.push(&s);
        expected.extend(reference.flush());

        for chunk_len in [1, 3, 7, 16, 64, 1000, s.len()] {
            let (splitter, segments) = split(&s, chunk_len);
            assert_eq!(splitter.samples_consumed(), s.len() as u64);
            assert_eq!(segments.len(), expected.len(), "chunk_len {chunk_len}");

            let mut scratch = Vec::new();
            for (seg, (pos, window)) in segments.iter().zip(&expected) {
                assert_eq!(seg.base, *pos, "chunk_len {chunk_len}");
                let got = seg.window(&mut scratch);
                assert!(
                    got.len() == window.len()
                        && got
                            .iter()
                            .zip(window)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "chunk_len {chunk_len}: segment at {pos} differs from the reference window"
                );
            }
        }
    }

    #[test]
    fn peeked_sa_is_chunking_invariant() {
        let bits = [false, true, false, true, true, false, false, true];
        let mut s = Vec::new();
        for _ in 0..3 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 64]);
        let mut reference: Option<Vec<u8>> = None;
        for chunk_len in [2, 5, 33, s.len()] {
            let (_, segments) = split(&s, chunk_len);
            let sas: Vec<u8> = segments.iter().map(|seg| seg.sa).collect();
            match &reference {
                None => reference = Some(sas),
                Some(expected) => assert_eq!(&sas, expected, "chunk_len {chunk_len}"),
            }
        }
    }

    #[test]
    fn pure_idle_streams_emit_nothing_and_bound_the_carry() {
        let mut splitter = FrameSplitter::new(config());
        let mut segments = Vec::new();
        for _ in 0..50 {
            let arc: Arc<[f64]> = vec![100.0; 1000].into();
            splitter.split_chunk(&arc, &mut segments);
        }
        assert!(segments.is_empty());
        assert!(splitter.flush().is_none());
        // The lead-in is 2 bits at 4 samples/bit.
        assert!(splitter.retained.len() <= 8 + 1);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::scan;
    use vprofile_vehicle::scenario::stress_fleet;
    use vprofile_vehicle::CaptureConfig;

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn perf_probe_split_loop() {
        let vehicle = stress_fleet(8, 41);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(500).with_seed(41))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let mut stream = Vec::new();
        for frame in capture.frames() {
            stream.extend_from_slice(&frame.trace.to_f64());
        }
        let chunks: Vec<Arc<[f64]>> = stream.chunks(65_536).map(Arc::from).collect();
        let reps = 20; // ~10k frames
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut splitter = FrameSplitter::new(config.clone());
            let mut out = Vec::new();
            let mut frames = 0usize;
            let mut spent = std::time::Duration::ZERO;
            for _ in 0..reps {
                for chunk in &chunks {
                    // Warm the chunk like the router's untimed Vec -> Arc
                    // copy does in the real pipeline.
                    let warm: f64 = chunk.iter().sum();
                    std::hint::black_box(warm);
                    let t = std::time::Instant::now();
                    splitter.split_chunk(chunk, &mut out);
                    spent += t.elapsed();
                    frames += out.len();
                    out.clear();
                }
            }
            let ns = spent.as_nanos() as f64 / frames as f64;
            best = best.min(ns);
            eprintln!("split loop: {ns:.0} ns/frame over {frames} frames");
        }
        eprintln!("BEST {best:.0} ns/frame");
    }

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn perf_probe_peek_only() {
        let vehicle = stress_fleet(8, 41);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(500).with_seed(41))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let peeker = EdgeSetExtractor::new(config);
        let windows: Vec<Vec<f64>> = capture.frames().iter().map(|f| f.trace.to_f64()).collect();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut peeks = 0usize;
            let t = std::time::Instant::now();
            for _ in 0..20 {
                for w in &windows {
                    let sa = peeker.peek_sa(w).map(|sa| sa.raw()).unwrap_or(0xFF);
                    std::hint::black_box(sa);
                    peeks += 1;
                }
            }
            let ns = t.elapsed().as_nanos() as f64 / peeks as f64;
            best = best.min(ns);
            eprintln!("peek only: {ns:.0} ns");
        }
        eprintln!("PEEK BEST {best:.0} ns");
    }

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn perf_probe_scans_only() {
        let vehicle = stress_fleet(8, 41);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(500).with_seed(41))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let threshold = config.bit_threshold;
        let end_gap = (8.0 * config.bit_width_samples) as usize;
        let mut stream = Vec::new();
        for frame in capture.frames() {
            stream.extend_from_slice(&frame.trace.to_f64());
        }
        let chunks: Vec<Arc<[f64]>> = stream.chunks(65_536).map(Arc::from).collect();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut frames = 0usize;
            let mut in_frame = false;
            let mut run = 0usize;
            let mut spent = std::time::Duration::ZERO;
            for _ in 0..20 {
                for chunk in &chunks {
                    let warm: f64 = chunk.iter().sum();
                    std::hint::black_box(warm);
                    let samples: &[f64] = chunk;
                    let t = std::time::Instant::now();
                    let mut i = 0usize;
                    while i < samples.len() {
                        if !in_frame {
                            match scan::find_dominant(&samples[i..], threshold) {
                                None => break,
                                Some(off) => {
                                    i += off;
                                    in_frame = true;
                                    run = 0;
                                }
                            }
                        }
                        match scan::gap_close(&samples[i..], threshold, end_gap, run) {
                            Ok(k) => {
                                i += k + 1;
                                in_frame = false;
                                frames += 1;
                            }
                            Err(r) => {
                                run = r;
                                break;
                            }
                        }
                    }
                    spent += t.elapsed();
                }
            }
            let ns = spent.as_nanos() as f64 / frames as f64;
            best = best.min(ns);
            eprintln!("scans only: {ns:.0} ns/frame over {frames} frames");
        }
        eprintln!("SCANS BEST {best:.0} ns/frame");
    }
}
