//! Frame-boundary detection in a continuous raw sample stream.
//!
//! The bus idles recessive; a frame starts at the first dominant sample
//! (SOF) and, thanks to bit stuffing, never contains more than five
//! consecutive recessive *data* bits until the CRC delimiter. A recessive
//! run much longer than that therefore marks end-of-frame (the monitor sees
//! EOF + intermission ≥ 10 recessive bits).

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::scan;

/// Where a framing state machine keeps the samples earlier chunks left
/// behind: the idle lead-in before a SOF and the body of a frame still
/// open at a chunk boundary. The window under construction is always the
/// retained samples followed by the current chunk's samples scanned so
/// far.
pub(crate) trait Retained {
    /// Number of retained samples.
    fn len(&self) -> usize;
    /// Drops the `n` oldest retained samples.
    fn trim_front(&mut self, n: usize);
}

impl Retained for Vec<f64> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn trim_front(&mut self, n: usize) {
        self.drain(..n.min(Vec::len(self)));
    }
}

/// A frame window that closed inside the chunk being scanned.
#[derive(Debug)]
pub(crate) struct Closed {
    /// Absolute stream position of the window's first sample.
    pub base: u64,
    /// The chunk range that ends the window: the retained samples followed
    /// by `chunk[span]` are the whole window. The range's last sample is
    /// the one that completed the closing idle gap.
    pub span: Range<usize>,
    /// Offset of the frame's SOF from the window start.
    pub sof: usize,
}

/// The frame-boundary state machine: SOF search, lead-in trim, gap-close
/// search, recessive-run carry and sample accounting. It holds no samples
/// itself — the caller's [`Retained`] store does — so [`StreamFramer`]
/// (an owned buffer) and the pipeline's splitter (zero-copy chunk spans)
/// run the very same boundary logic.
///
/// Each chunk is consumed in *runs*, not sample by sample: idle spans are
/// skipped with one vectorizable threshold scan ([`scan::find_dominant`])
/// and trimmed to the lead-in once per span, and in-frame spans use the
/// fused block-max gap search ([`scan::gap_close`]) — a close needs
/// `end_gap` consecutive recessive samples, and the search folds eight
/// lanes per step to find where that run completes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Boundaries {
    /// Dominant/recessive decision threshold (ADC code units).
    threshold: f64,
    /// Recessive run, in samples, that closes a frame (8 bits: EOF plus
    /// intermission is at least 10).
    end_gap: usize,
    /// Leading idle samples retained before SOF.
    lead_in: usize,
    /// Offset of the open frame's SOF from the window start, if a frame
    /// is open. Fixed once in-frame: nothing is trimmed after SOF.
    sof: Option<usize>,
    /// Length of the open frame's trailing recessive run, in samples;
    /// reset at each SOF.
    recessive_run: usize,
    /// Total samples consumed (absolute stream position).
    consumed: u64,
}

impl Boundaries {
    /// Creates the state machine for `bit_width` samples per bit and the
    /// given dominant/recessive threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width < 2.0` samples.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        assert!(bit_width >= 2.0, "need at least 2 samples per bit");
        Boundaries {
            threshold,
            end_gap: (8.0 * bit_width) as usize,
            lead_in: (2.0 * bit_width) as usize,
            sof: None,
            recessive_run: 0,
            consumed: 0,
        }
    }

    /// Total samples consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Scans one chunk, calling `on_close` for every frame that closes
    /// inside it. `on_close` must take the window's retained part out of
    /// the store, leaving it empty. Returns the start of the chunk suffix
    /// the caller must append to the store afterwards (`samples.len()`
    /// when nothing of this chunk needs keeping).
    // xtask: hot-path
    pub fn scan_chunk<R: Retained>(
        &mut self,
        samples: &[f64],
        retained: &mut R,
        mut on_close: impl FnMut(&mut R, Closed),
    ) -> usize {
        let mut i = 0usize;
        // Start of this chunk's part of the window under construction:
        // the window so far is `retained ++ samples[span_start..i]`.
        let mut span_start = 0usize;
        while i < samples.len() {
            let sof = match self.sof {
                Some(sof) => sof,
                None => {
                    // Idle: find the next dominant sample (SOF), keeping
                    // only a lead-in tail of the idle span before it —
                    // trimmed front-first, retained samples before the
                    // in-chunk span.
                    let sof_off = scan::find_dominant(&samples[i..], self.threshold);
                    let idle_len = sof_off.unwrap_or(samples.len() - i);
                    self.consumed += idle_len as u64;
                    i += idle_len;
                    let excess = (retained.len() + i - span_start).saturating_sub(self.lead_in);
                    let from_retained = excess.min(retained.len());
                    retained.trim_front(from_retained);
                    span_start += excess - from_retained;
                    if sof_off.is_none() {
                        break; // chunk was pure idle
                    }
                    let sof = retained.len() + i - span_start;
                    self.sof = Some(sof);
                    self.recessive_run = 0;
                    sof
                }
            };
            // In frame: find where the trailing recessive run reaches
            // `end_gap`, or carry the run into the next chunk.
            match scan::gap_close(
                &samples[i..],
                self.threshold,
                self.end_gap,
                self.recessive_run,
            ) {
                Ok(k) => {
                    self.consumed += (k + 1) as u64;
                    i += k + 1;
                    let window_len = retained.len() + i - span_start;
                    let closed = Closed {
                        base: self.consumed - window_len as u64,
                        span: span_start..i,
                        sof,
                    };
                    on_close(retained, closed);
                    debug_assert_eq!(retained.len(), 0, "on_close must take the retained samples");
                    self.sof = None;
                    span_start = i;
                }
                Err(run_out) => {
                    self.recessive_run = run_out;
                    self.consumed += (samples.len() - i) as u64;
                    break;
                }
            }
        }
        span_start
    }

    /// Ends a frame that never saw its closing idle gap (end of capture):
    /// returns its window's stream position and SOF offset — the window
    /// is everything retained — or `None` when no frame is open.
    // xtask: cold
    pub fn flush(&mut self, retained_len: usize) -> Option<(u64, usize)> {
        let sof = self.sof.take()?;
        Some((self.consumed - retained_len as u64, sof))
    }
}

/// Splits a continuous sample stream into per-frame windows.
///
/// Feed samples incrementally with [`StreamFramer::push`]; completed frame
/// windows (including a few bits of leading idle, which Algorithm 1's SOF
/// search expects) are returned as they close.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamFramer {
    /// The boundary state machine.
    bounds: Boundaries,
    /// Samples retained from earlier chunks and not yet emitted.
    buffer: Vec<f64>,
}

impl StreamFramer {
    /// Creates a framer.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width < 2.0` samples.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        StreamFramer {
            bounds: Boundaries::new(bit_width, threshold),
            buffer: Vec::new(),
        }
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.bounds.consumed()
    }

    /// Pushes a chunk of samples; returns every frame window completed by
    /// this chunk, each paired with the stream position of its first
    /// sample.
    ///
    /// Boundaries come from the shared `Boundaries` state machine; a
    /// closed frame's window is assembled directly from the buffered head
    /// plus the in-chunk tail (one copy of the body), and only the chunk
    /// suffix the machine still needs is buffered. Output is identical for
    /// every chunking of the stream.
    // xtask: hot-path
    pub fn push(&mut self, samples: &[f64]) -> Vec<(u64, Vec<f64>)> {
        // xtask: allow(hot-path-alloc): an empty Vec does not touch the heap; it only grows when a frame closes and is moved out to the caller
        let mut out = Vec::new();
        self.push_into(samples, &mut out);
        out
    }

    /// [`StreamFramer::push`] into a caller-owned output vector, so a
    /// steady-state caller can reuse one scratch allocation across chunks.
    // xtask: hot-path
    pub fn push_into(&mut self, samples: &[f64], out: &mut Vec<(u64, Vec<f64>)>) {
        let keep = self
            .bounds
            .scan_chunk(samples, &mut self.buffer, |buffer, closed| {
                let tail = samples.get(closed.span).unwrap_or(&[]);
                // xtask: allow(hot-path-alloc): one buffer per closed frame whose ownership moves into the emitted window; gated by the runtime alloc harness
                let mut window = Vec::with_capacity(buffer.len() + tail.len());
                window.extend_from_slice(buffer);
                window.extend_from_slice(tail);
                buffer.clear();
                out.push((closed.base, window));
            });
        self.buffer
            .extend_from_slice(samples.get(keep..).unwrap_or(&[]));
    }

    /// Flushes a trailing frame that never saw its closing idle gap (e.g.
    /// at end of capture). Returns `None` when no frame is open.
    // xtask: cold
    pub fn flush(&mut self) -> Option<(u64, Vec<f64>)> {
        let (stream_pos, _) = self.bounds.flush(self.buffer.len())?;
        Some((stream_pos, std::mem::take(&mut self.buffer)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an idealized frame window: `idle` recessive samples, then the
    /// bit pattern at 4 samples/bit (0 = dominant/high code).
    fn stream(idle: usize, bits: &[bool]) -> Vec<f64> {
        let mut out = vec![100.0; idle];
        for &b in bits {
            let level = if b { 100.0 } else { 3000.0 };
            out.extend(std::iter::repeat_n(level, 4));
        }
        out
    }

    fn framer() -> StreamFramer {
        StreamFramer::new(4.0, 1500.0)
    }

    #[test]
    fn single_frame_is_emitted_after_idle_gap() {
        let mut f = framer();
        // SOF + alternating bits, then a long idle.
        let bits = [false, true, false, true, false];
        let mut s = stream(40, &bits);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 1);
        let (_, window) = &frames[0];
        // Window contains the dominant samples.
        assert!(window.iter().any(|&v| v > 1500.0));
    }

    #[test]
    fn stuffing_length_runs_do_not_split_frames() {
        let mut f = framer();
        // A frame with a 5-bit recessive run inside (legal under stuffing).
        let mut bits = vec![false];
        bits.extend([true; 5]);
        bits.extend([false, false]);
        let mut s = stream(40, &bits);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 1, "5-bit recessive run must not split");
    }

    #[test]
    fn multiple_frames_are_separated() {
        let mut f = framer();
        let bits = [false, true, false];
        let mut s = Vec::new();
        for _ in 0..3 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 3);
        // Positions are strictly increasing.
        assert!(frames.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn chunked_input_matches_single_push() {
        let bits = [false, true, true, false, true];
        let mut s = Vec::new();
        for _ in 0..2 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 40]);

        let mut whole = framer();
        let expected = whole.push(&s);

        let mut chunked = framer();
        let mut got = Vec::new();
        for chunk in s.chunks(7) {
            got.extend(chunked.push(chunk));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn flush_recovers_unterminated_frame() {
        let mut f = framer();
        let s = stream(40, &[false, true, false]);
        assert!(f.push(&s).is_empty());
        let flushed = f.flush().expect("open frame");
        assert!(flushed.1.iter().any(|&v| v > 1500.0));
        assert!(f.flush().is_none());
    }

    #[test]
    fn pure_idle_emits_nothing_and_bounds_memory() {
        let mut f = framer();
        for _ in 0..100 {
            assert!(f.push(&vec![100.0; 1000]).is_empty());
        }
        // Internal buffer must not grow with idle time.
        assert!(f.buffer.len() <= f.bounds.lead_in + 1);
    }

    #[test]
    fn lead_in_is_preserved_before_sof() {
        let mut f = framer();
        let mut s = stream(40, &[false, false, true]);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        let (_, window) = &frames[0];
        // The first lead-in samples are recessive idle.
        assert!(window[..8].iter().all(|&v| v < 1500.0));
    }
}
