//! The sweep-line kernels behind [`RectUnion`](crate::RectUnion).
//!
//! Every sweep looks at the member rectangles from one axis: the *fixed*
//! axis is the one candidate lines and slab borders cut, the *free* axis
//! the one their covered runs lie along. Members are sorted by their free
//! low end once per sweep, so each line or slab builds its canonical runs
//! by one linear pass with [`push_run`] — the same runs
//! [`IntervalSet::from_intervals`](crate::IntervalSet::from_intervals)
//! would build after sorting that subset itself.
//!
//! All working buffers live in one per-thread [`Sweep`], so warm calls
//! that return no collection allocate nothing.

use crate::intervals::{difference_into, push_run};
use crate::{Point, Rect, Segment, EPSILON};
use std::cell::RefCell;

type Run = (f64, f64);

/// A member rectangle seen from one sweep axis.
#[derive(Clone, Copy)]
struct Member {
    fixed_lo: f64,
    fixed_hi: f64,
    free_lo: f64,
    free_hi: f64,
    /// Position in the member list; orders members with equal `free_lo`.
    index: usize,
}

/// Reused working buffers of the sweeps.
struct Sweep {
    /// Members, sorted by `(free_lo, index)`.
    members: Vec<Member>,
    /// Candidate lines or slab borders: sorted, ε-deduplicated.
    cuts: Vec<f64>,
    /// Free-axis runs covered just before / just after a candidate line.
    before: Vec<Run>,
    after: Vec<Run>,
    /// `before \ after` and `after \ before`.
    only_before: Vec<Run>,
    only_after: Vec<Run>,
    /// The output runs of the last line or slab.
    runs: Vec<Run>,
    /// `rect_difference`'s open rectangles `(ylo, yhi, index in output)`.
    open: Vec<(f64, f64, usize)>,
    next_open: Vec<(f64, f64, usize)>,
}

impl Sweep {
    const fn new() -> Self {
        Self {
            members: Vec::new(),
            cuts: Vec::new(),
            before: Vec::new(),
            after: Vec::new(),
            only_before: Vec::new(),
            only_after: Vec::new(),
            runs: Vec::new(),
            open: Vec::new(),
            next_open: Vec::new(),
        }
    }

    /// Loads `rects` seen from one axis: `vertical` sweeps cut x (lines
    /// are vertical, runs lie along y), otherwise they cut y.
    fn load_members(&mut self, rects: &[Rect], vertical: bool) {
        self.members.clear();
        self.members
            .extend(rects.iter().enumerate().map(|(index, r)| {
                let (fixed_lo, fixed_hi, free_lo, free_hi) = if vertical {
                    (r.x1, r.x2, r.y1, r.y2)
                } else {
                    (r.y1, r.y2, r.x1, r.x2)
                };
                Member {
                    fixed_lo,
                    fixed_hi,
                    free_lo,
                    free_hi,
                    index,
                }
            }));
        // The index tie-break makes this the stable order, without the
        // buffer a stable sort may allocate.
        self.members
            .sort_unstable_by(|a, b| a.free_lo.total_cmp(&b.free_lo).then(a.index.cmp(&b.index)));
    }

    /// Every member's fixed-axis ends as the cuts.
    fn load_member_cuts(&mut self) {
        self.cuts.clear();
        self.cuts
            .extend(self.members.iter().flat_map(|m| [m.fixed_lo, m.fixed_hi]));
        self.sort_cuts();
    }

    fn sort_cuts(&mut self) {
        // Values equal under `total_cmp` are bit-identical, so an unstable
        // sort gives the stable sort's result.
        self.cuts.sort_unstable_by(f64::total_cmp);
        self.cuts.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);
    }

    /// The boundary runs on the candidate line at `c`, into `self.runs`:
    /// the free-axis spans interior to the union on exactly one side.
    fn line_runs(&mut self, c: f64) {
        self.before.clear();
        self.after.clear();
        for m in &self.members {
            if m.fixed_lo + EPSILON < c && m.fixed_hi >= c - EPSILON {
                push_run(&mut self.before, m.free_lo, m.free_hi);
            }
            if m.fixed_hi - EPSILON > c && m.fixed_lo <= c + EPSILON {
                push_run(&mut self.after, m.free_lo, m.free_hi);
            }
        }
        self.only_before.clear();
        self.only_after.clear();
        difference_into(&self.before, &self.after, &mut self.only_before);
        difference_into(&self.after, &self.before, &mut self.only_after);
        // Their union, as `IntervalSet::union` forms it: a stable merge by
        // low end (`before`'s pieces first on ties), canonically merged.
        self.runs.clear();
        let (a, b) = (&self.only_before, &self.only_after);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j == b.len() || (i < a.len() && a[i].0.total_cmp(&b[j].0).is_le()) {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
            push_run(&mut self.runs, next.0, next.1);
        }
    }

    /// The free-axis runs covered across the whole slab `[xa, xb]`, into
    /// `self.runs`.
    fn slab_runs(&mut self, xa: f64, xb: f64) {
        self.runs.clear();
        for m in &self.members {
            if m.fixed_lo <= xa + EPSILON && m.fixed_hi >= xb - EPSILON {
                push_run(&mut self.runs, m.free_lo, m.free_hi);
            }
        }
    }
}

thread_local! {
    /// This thread's buffers. No kernel calls back into another while it
    /// holds them, so the borrow never nests.
    static SWEEP: RefCell<Sweep> = const { RefCell::new(Sweep::new()) };
}

fn segment(vertical: bool, at: f64, lo: f64, hi: f64) -> Segment {
    if vertical {
        Segment::vertical(at, lo, hi)
    } else {
        Segment::horizontal(at, lo, hi)
    }
}

/// All boundary edges: vertical ones first, then horizontal; lines in
/// ascending order; runs in ascending order along each line.
pub(crate) fn boundary_edges(rects: &[Rect]) -> Vec<Segment> {
    SWEEP.with_borrow_mut(|s| {
        let mut out = Vec::new();
        for vertical in [true, false] {
            s.load_members(rects, vertical);
            s.load_member_cuts();
            for line in 0..s.cuts.len() {
                let c = s.cuts[line];
                s.line_runs(c);
                out.extend(s.runs.iter().map(|&(lo, hi)| segment(vertical, c, lo, hi)));
            }
        }
        out
    })
}

/// The nearest boundary edge from `p` and its distance: the first edge of
/// minimum distance (by `total_cmp`) in [`boundary_edges`] order.
///
/// Each axis visits its candidate lines nearest-first, walking outward
/// from `p` in both directions, and stops once the nearer front is
/// farther than the best edge so far: every edge on a line at offset
/// `|c − p|` is at least that far from `p`. Distance ties resolve by
/// position in [`boundary_edges`] order, so the early exit returns the
/// same edge as a scan over all of them. Exact for rectangles without
/// NaN coordinates; a NaN `p` visits every line.
pub(crate) fn nearest_edge(rects: &[Rect], p: Point) -> Option<(f64, Segment)> {
    SWEEP.with_borrow_mut(|s| {
        // (distance, edge, (axis, line, run) in `boundary_edges` order)
        let mut best: Option<(f64, Segment, (usize, usize, usize))> = None;
        for (axis, vertical) in [true, false].into_iter().enumerate() {
            s.load_members(rects, vertical);
            s.load_member_cuts();
            let pc = if vertical { p.x } else { p.y };
            // Unvisited lines are `cuts[..below]` and `cuts[above..]`.
            let mut above = s.cuts.partition_point(|&c| c < pc);
            let mut below = above;
            loop {
                let gap = |i: usize| (s.cuts[i] - pc).abs();
                let line = match (
                    below.checked_sub(1),
                    (above < s.cuts.len()).then_some(above),
                ) {
                    (Some(b), Some(a)) => {
                        if gap(b) <= gap(a) {
                            b
                        } else {
                            a
                        }
                    }
                    (Some(b), None) => b,
                    (None, Some(a)) => a,
                    (None, None) => break,
                };
                if best.is_some_and(|(d, ..)| gap(line) > d) {
                    break;
                }
                if line < below {
                    below -= 1;
                } else {
                    above += 1;
                }
                let c = s.cuts[line];
                s.line_runs(c);
                for (run, &(lo, hi)) in s.runs.iter().enumerate() {
                    let seg = segment(vertical, c, lo, hi);
                    let d = seg.distance_to_point(p);
                    let key = (axis, line, run);
                    let better = best
                        .is_none_or(|(bd, _, bkey)| d.total_cmp(&bd).then(key.cmp(&bkey)).is_lt());
                    if better {
                        best = Some((d, seg, key));
                    }
                }
            }
        }
        best.map(|(d, seg, _)| (d, seg))
    })
}

/// The disjoint vertical-slab tiles of the union, yielded lazily.
pub(crate) struct Tiles<'a> {
    sweep: &'a mut Sweep,
    /// Index of the next slab's left border in `sweep.cuts`.
    slab: usize,
    /// Next run of the current slab in `sweep.runs`.
    run: usize,
    xa: f64,
    xb: f64,
}

impl Iterator for Tiles<'_> {
    type Item = Rect;

    fn next(&mut self) -> Option<Rect> {
        loop {
            if let Some(&(lo, hi)) = self.sweep.runs.get(self.run) {
                self.run += 1;
                return Some(Rect::from_coords(self.xa, lo, self.xb, hi));
            }
            let (&xa, &xb) = (
                self.sweep.cuts.get(self.slab)?,
                self.sweep.cuts.get(self.slab + 1)?,
            );
            self.slab += 1;
            self.run = 0;
            self.sweep.runs.clear();
            if xb - xa <= EPSILON {
                continue;
            }
            (self.xa, self.xb) = (xa, xb);
            self.sweep.slab_runs(xa, xb);
        }
    }
}

/// Runs `f` over the union's tiles: slabs left to right, runs bottom to
/// top within a slab.
pub(crate) fn with_tiles<R>(rects: &[Rect], f: impl FnOnce(Tiles<'_>) -> R) -> R {
    SWEEP.with_borrow_mut(|s| {
        s.load_members(rects, true);
        s.load_member_cuts();
        s.runs.clear();
        f(Tiles {
            sweep: s,
            slab: 0,
            run: 0,
            xa: 0.0,
            xb: 0.0,
        })
    })
}

/// `w \ union` as disjoint rectangles, slabs with identical uncovered
/// runs coalesced. `w` must not be degenerate.
pub(crate) fn rect_difference(rects: &[Rect], w: &Rect) -> Vec<Rect> {
    SWEEP.with_borrow_mut(|s| {
        s.load_members(rects, true);
        s.cuts.clear();
        s.cuts.extend([w.x1, w.x2]);
        for r in rects {
            if r.intersects_interior(w) {
                if r.x1 > w.x1 && r.x1 < w.x2 {
                    s.cuts.push(r.x1);
                }
                if r.x2 > w.x1 && r.x2 < w.x2 {
                    s.cuts.push(r.x2);
                }
            }
        }
        s.sort_cuts();

        // `IntervalSet::single(w.y1, w.y2)`.
        let span = (w.y1, w.y2);
        let full: &[Run] = if span.1 - span.0 > EPSILON {
            std::slice::from_ref(&span)
        } else {
            &[]
        };
        let mut out: Vec<Rect> = Vec::new();
        s.open.clear();
        for slab in 1..s.cuts.len() {
            let (xa, xb) = (s.cuts[slab - 1], s.cuts[slab]);
            if xb - xa <= EPSILON {
                continue;
            }
            s.slab_runs(xa, xb);
            // The slab's uncovered runs, in a buffer lines use for theirs.
            s.only_before.clear();
            difference_into(full, &s.runs, &mut s.only_before);
            s.next_open.clear();
            for &(lo, hi) in &s.only_before {
                // Extend an open rect with the same y-run, else start one.
                if let Some(&(plo, phi, idx)) = s.open.iter().find(|&&(plo, phi, _)| {
                    (plo - lo).abs() <= EPSILON && (phi - hi).abs() <= EPSILON
                }) {
                    out[idx].x2 = xb;
                    s.next_open.push((plo, phi, idx));
                } else {
                    out.push(Rect::from_coords(xa, lo, xb, hi));
                    s.next_open.push((lo, hi, out.len() - 1));
                }
            }
            std::mem::swap(&mut s.open, &mut s.next_open);
        }
        out
    })
}
