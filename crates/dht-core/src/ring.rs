//! Modular-ring arithmetic shared by every ring-flavoured overlay.
//!
//! Chord and Koorde live on a `2^b` identifier circle, Viceroy on a `[0,1)`
//! circle (represented in 64-bit fixed point), and Cycloid's large cycle is
//! a `2^d` circle of cubical indices. All of them need the same three
//! operations: clockwise distance, minimal (either-direction) distance, and
//! half-open interval membership with wraparound.

/// Clockwise (increasing-identifier) distance from `from` to `to` on a ring
/// of size `modulus`.
#[inline]
#[must_use]
pub fn clockwise_dist(from: u64, to: u64, modulus: u64) -> u64 {
    debug_assert!(modulus > 0);
    debug_assert!(from < modulus && to < modulus);
    if to >= from {
        to - from
    } else {
        modulus - from + to
    }
}

/// Minimal distance between `a` and `b` on a ring of size `modulus`
/// (the shorter of the two ways around).
#[inline]
#[must_use]
pub fn ring_dist(a: u64, b: u64, modulus: u64) -> u64 {
    let cw = clockwise_dist(a, b, modulus);
    cw.min(modulus - cw)
}

/// `true` iff `x` lies in the half-open clockwise interval `(from, to]` on a
/// ring of size `modulus`. This is the membership test Chord-family
/// protocols use for "is `x` between me and my successor".
///
/// When `from == to` the interval is the whole ring minus nothing — i.e.
/// every `x != from` is inside, and `x == from == to` is inside too (a
/// single node owns the entire circle).
#[inline]
#[must_use]
pub fn in_interval_oc(x: u64, from: u64, to: u64, modulus: u64) -> bool {
    debug_assert!(x < modulus && from < modulus && to < modulus);
    if from == to {
        true
    } else {
        clockwise_dist(from, x, modulus) <= clockwise_dist(from, to, modulus) && x != from
    }
}

/// `true` iff `x` lies in the half-open clockwise interval `[from, to)` on
/// a ring of size `modulus` — the "is `from` the predecessor of `x`" test
/// Koorde uses for imaginary-node ownership.
///
/// When `from == to` the interval is the whole ring (a single node owns
/// every imaginary point).
#[inline]
#[must_use]
pub fn in_interval_co(x: u64, from: u64, to: u64, modulus: u64) -> bool {
    debug_assert!(x < modulus && from < modulus && to < modulus);
    if from == to {
        true
    } else {
        clockwise_dist(from, x, modulus) < clockwise_dist(from, to, modulus)
    }
}

/// `true` iff `x` lies in the open clockwise interval `(from, to)`.
#[inline]
#[must_use]
pub fn in_interval_oo(x: u64, from: u64, to: u64, modulus: u64) -> bool {
    x != to && in_interval_oc(x, from, to, modulus)
}

/// Reads a neighbourhood off a ring laid out as a sorted list of `n`
/// entries: the `before` entries counter-clockwise and the `after`
/// entries clockwise of position `i`, nearest first, each fetched by
/// `at(position)`. Positions wrap, so a reach longer than the ring
/// repeats it (position `i` included) — what successive nearest-neighbour
/// searches on the ring return. The audits read every expected pointer
/// this way, off the sorted token list alone.
#[must_use]
pub fn ring_sides<T, B: FromIterator<T>>(
    i: usize,
    n: usize,
    before: usize,
    after: usize,
    at: impl Fn(usize) -> T,
) -> (B, B) {
    // A position is rarely past `n` and all but never past `2n`:
    // subtract, and divide only when that is not enough.
    let wrap = |j: usize| match j.checked_sub(n) {
        None => j,
        Some(over) if over < n => over,
        Some(over) => over % n,
    };
    let back = (1..=before).map(|k| at(wrap(i + n - wrap(k))));
    let forth = (1..=after).map(|k| at(wrap(i + k)));
    (back.collect(), forth.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::InlineVec;

    #[test]
    fn clockwise_basics() {
        assert_eq!(clockwise_dist(0, 5, 16), 5);
        assert_eq!(clockwise_dist(5, 0, 16), 11);
        assert_eq!(clockwise_dist(7, 7, 16), 0);
        assert_eq!(clockwise_dist(15, 0, 16), 1);
    }

    #[test]
    fn ring_dist_symmetric_and_minimal() {
        for m in [2u64, 7, 16, 2048] {
            for a in 0..m.min(32) {
                for b in 0..m.min(32) {
                    let d = ring_dist(a, b, m);
                    assert_eq!(d, ring_dist(b, a, m), "symmetry");
                    assert!(d <= m / 2, "minimality: {d} > {}/2", m);
                }
            }
        }
    }

    #[test]
    fn interval_oc_wraparound() {
        // (14, 2] on a 16-ring contains 15, 0, 1, 2 but not 14, 3.
        assert!(in_interval_oc(15, 14, 2, 16));
        assert!(in_interval_oc(0, 14, 2, 16));
        assert!(in_interval_oc(2, 14, 2, 16));
        assert!(!in_interval_oc(14, 14, 2, 16));
        assert!(!in_interval_oc(3, 14, 2, 16));
    }

    #[test]
    fn interval_degenerate_full_ring() {
        // from == to: single node owns everything.
        assert!(in_interval_oc(3, 7, 7, 16));
        assert!(in_interval_oc(7, 7, 7, 16));
    }

    #[test]
    fn interval_co_includes_start_excludes_end() {
        assert!(in_interval_co(14, 14, 2, 16));
        assert!(in_interval_co(0, 14, 2, 16));
        assert!(!in_interval_co(2, 14, 2, 16));
        assert!(!in_interval_co(5, 14, 2, 16));
        // Degenerate: single node owns every imaginary point.
        assert!(in_interval_co(9, 3, 3, 16));
    }

    #[test]
    fn ring_sides_wrap_like_modular_arithmetic() {
        // Every ring size from one entry to past the longest reach, every
        // position, every reach the inline capacity allows: the entries
        // are the plain `mod n` ones, nearest first.
        for n in 1..=7usize {
            let ring: Vec<u64> = (0..n as u64).map(|t| 10 * t + 3).collect();
            for i in 0..n {
                for (before, after) in [(0, 0), (1, 3), (2, 2), (4, 4), (3, 1)] {
                    let (back, forth): (InlineVec<u64, 4>, InlineVec<u64, 4>) =
                        ring_sides(i, n, before, after, |j| ring[j]);
                    let want_back: Vec<u64> =
                        (1..=before).map(|k| ring[(i + n * k - k) % n]).collect();
                    let want_forth: Vec<u64> = (1..=after).map(|k| ring[(i + k) % n]).collect();
                    assert_eq!(back, want_back, "n={n} i={i} before={before}");
                    assert_eq!(forth, want_forth, "n={n} i={i} after={after}");
                }
            }
        }
        // Spelled out: two entries, reach three — the ring repeats and
        // passes through the position itself.
        let (back, forth): (InlineVec<u64, 4>, InlineVec<u64, 4>) =
            ring_sides(0, 2, 1, 3, |j| [7u64, 40][j]);
        assert_eq!((back, forth), (vec![40].into(), vec![40, 7, 40].into()));
    }

    #[test]
    fn interval_oo_excludes_endpoint() {
        assert!(in_interval_oo(1, 14, 2, 16));
        assert!(!in_interval_oo(2, 14, 2, 16));
        assert!(!in_interval_oo(14, 14, 2, 16));
    }
}
