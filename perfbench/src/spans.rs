//! In-memory spans for the single-threaded replay: each carries a name, a
//! start, an end and its parent. They are kept in memory while the replay
//! runs and written out once it is over.

use std::time::Instant;

/// One closed (or still open) interval of replayed work.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran, e.g. `train` or `L3.conv2d.fwd`. Names are static so
    /// opening a span never allocates inside the timed region.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// reallocate inside the replay.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let t = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = t;
    }

    /// Renames span `id` (e.g. once a poll turns out to be idle).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }
}

/// A span name built at run time (a layer's position and kind), leaked
/// once so spans can carry it without allocating.
pub fn name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it), in one pass over the parent
/// links.
pub fn all_self_times(spans: &[Span]) -> Vec<f64> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&kids)
        .map(|(me, k)| own_time(me, k.iter().map(|&i| &spans[i])))
        .collect()
}

fn own_time<'a>(me: &Span, children: impl Iterator<Item = &'a Span>) -> f64 {
    let mut kids: Vec<(f64, f64)> = children
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same, for one span, by a direct scan.
    fn self_time(spans: &[Span], id: usize) -> f64 {
        own_time(&spans[id], spans.iter().filter(|s| s.parent == Some(id)))
    }

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0, 10] > fwd [1, 4] > conv [1.5, 3]; step > bwd [5, 9].
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("fwd", 1.0, 4.0, Some(0)),
            span("conv", 1.5, 3.0, Some(1)),
            span("bwd", 5.0, 9.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.5).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 1.5).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 4.0).abs() < 1e-12);
        let all = all_self_times(&spans);
        for (i, own) in all.iter().enumerate() {
            assert_eq!(*own, self_time(&spans, i));
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            // Sticks out past the parent: clipped.
            span("c", 8.0, 12.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_accounts() {
        let mut t = Tracer::with_capacity(8);
        t.span("outer", |t| {
            t.span("inner", |t| t.span("leaf", |_| std::hint::black_box(1)));
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(t.durations("inner").len(), 2);
        // Self times of a tree add back up to the root's duration.
        let total: f64 = all_self_times(s).iter().sum();
        assert!((total - s[0].duration()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::with_capacity(4);
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
