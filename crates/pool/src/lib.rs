//! Chunk arithmetic for modelled parallel workers.
//!
//! Region parallelism in this workspace is a cost model, not OS threads: a
//! statement runs on one thread, and its `threads` modelled workers are
//! charged by the sim-clock merge rules (`simclock::merge_elapsed`).  The
//! query executor still needs to know how a materialized input would be
//! carved across those workers — a partitioned join charges its largest
//! probe chunk, a parallel top-k keeps one bounded heap per chunk — and
//! [`chunk_ranges`] is that carving.

/// Splits `len` items into at most `parts` contiguous index ranges of
/// near-equal size (the first `len % parts` ranges are one longer).  Empty
/// ranges are never produced; fewer than `parts` ranges are returned when
/// `len < parts`.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut covered = 0;
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty ranges");
                    covered += r.len();
                    next = r.end;
                }
                assert_eq!(covered, len, "len={len} parts={parts}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(chunk_ranges(0, 4).is_empty());
        assert_eq!(chunk_ranges(1, 4), vec![0..1]);
        assert_eq!(chunk_ranges(7, 0), vec![0..7], "zero parts is one chunk");
    }
}
