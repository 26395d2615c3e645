//! Offline stand-in for `rayon` 1.10: `par_iter` / `into_par_iter` with
//! `map`, `filter`, `flat_map_iter`, `for_each` and `collect`, which is
//! what vq calls.
//!
//! There is no global pool and no work stealing. Each terminal operation
//! splits its source items into chunks and runs them on scoped threads
//! (the caller included), `current_num_threads()` wide, claiming chunks
//! from a shared counter; results come back in source order. A parallel
//! call made from inside one of those threads runs inline.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Threads a parallel call fans out to: the machine's available
/// parallelism (upstream: the global pool's size, same default).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    static INSIDE_PARALLEL_CALL: Cell<bool> = const { Cell::new(false) };
}

/// Chunks handed out per thread, so uneven items still balance.
const CHUNKS_PER_THREAD: usize = 8;

/// Apply `feed` to every source item; outputs keep source order.
fn run<S: Send, T: Send>(sources: Vec<S>, feed: impl Fn(S, &mut dyn FnMut(T)) + Sync) -> Vec<T> {
    let threads = current_num_threads().min(sources.len());
    if threads <= 1 || INSIDE_PARALLEL_CALL.with(Cell::get) {
        let mut out = Vec::with_capacity(sources.len());
        for source in sources {
            feed(source, &mut |item| out.push(item));
        }
        return out;
    }
    let chunk_len = sources.len().div_ceil(threads * CHUNKS_PER_THREAD);
    let mut chunks: Vec<Mutex<(Vec<S>, Vec<T>)>> = Vec::new();
    let mut sources = sources.into_iter();
    loop {
        let chunk: Vec<S> = sources.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(Mutex::new((chunk, Vec::new())));
    }
    let next = AtomicUsize::new(0);
    let work = || {
        INSIDE_PARALLEL_CALL.with(|flag| flag.set(true));
        loop {
            // Relaxed: the counter only hands out indices; each chunk's
            // data is published by its own mutex.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = chunks.get(i) else { break };
            let mut slot = slot.lock().expect("a chunk is locked by one thread only");
            let (inputs, outputs) = &mut *slot;
            for source in inputs.drain(..) {
                feed(source, &mut |item| outputs.push(item));
            }
        }
        INSIDE_PARALLEL_CALL.with(|flag| flag.set(false));
    };
    // A panic in `feed` propagates when the scope joins its threads.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    let mut out = Vec::new();
    for chunk in chunks {
        out.append(&mut chunk.into_inner().expect("workers have exited").1);
    }
    out
}

pub trait ParallelIterator: Sized + Sync {
    type Item: Send;
    type Source: Send;

    /// Take the source items out of the pipeline.
    fn take_sources(&mut self) -> Vec<Self::Source>;
    /// Push one source item through the pipeline into `sink`.
    fn feed(&self, source: Self::Source, sink: &mut dyn FnMut(Self::Item));

    fn map<R: Send, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    fn filter<P: Fn(&Self::Item) -> bool + Sync>(self, predicate: P) -> Filter<Self, P> {
        Filter {
            base: self,
            predicate,
        }
    }

    fn flat_map_iter<I: IntoIterator, F: Fn(Self::Item) -> I + Sync>(
        self,
        f: F,
    ) -> FlatMapIter<Self, F>
    where
        I::Item: Send,
    {
        FlatMapIter { base: self, f }
    }

    fn for_each<F: Fn(Self::Item) + Sync>(mut self, f: F) {
        let sources = self.take_sources();
        run::<_, ()>(sources, |source, _| self.feed(source, &mut |item| f(item)));
    }

    fn collect<C: FromIterator<Self::Item>>(mut self) -> C {
        let sources = self.take_sources();
        run(sources, |source, sink| self.feed(source, sink))
            .into_iter()
            .collect()
    }

    fn count(self) -> usize {
        self.map(|_| ()).collect::<Vec<()>>().len()
    }

    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.collect::<Vec<_>>().into_iter().sum()
    }
}

/// The source of every pipeline: owned items, one per source slot.
pub struct Items<T>(Vec<T>);

impl<T: Send + Sync> ParallelIterator for Items<T> {
    type Item = T;
    type Source = T;

    fn take_sources(&mut self) -> Vec<T> {
        std::mem::take(&mut self.0)
    }

    fn feed(&self, source: T, sink: &mut dyn FnMut(T)) {
        sink(source);
    }
}

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B: ParallelIterator, R: Send, F: Fn(B::Item) -> R + Sync> ParallelIterator for Map<B, F> {
    type Item = R;
    type Source = B::Source;

    fn take_sources(&mut self) -> Vec<B::Source> {
        self.base.take_sources()
    }

    fn feed(&self, source: B::Source, sink: &mut dyn FnMut(R)) {
        self.base.feed(source, &mut |item| sink((self.f)(item)));
    }
}

pub struct Filter<B, P> {
    base: B,
    predicate: P,
}

impl<B: ParallelIterator, P: Fn(&B::Item) -> bool + Sync> ParallelIterator for Filter<B, P> {
    type Item = B::Item;
    type Source = B::Source;

    fn take_sources(&mut self) -> Vec<B::Source> {
        self.base.take_sources()
    }

    fn feed(&self, source: B::Source, sink: &mut dyn FnMut(B::Item)) {
        self.base.feed(source, &mut |item| {
            if (self.predicate)(&item) {
                sink(item);
            }
        });
    }
}

pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

impl<B: ParallelIterator, I: IntoIterator, F: Fn(B::Item) -> I + Sync> ParallelIterator
    for FlatMapIter<B, F>
where
    I::Item: Send,
{
    type Item = I::Item;
    type Source = B::Source;

    fn take_sources(&mut self) -> Vec<B::Source> {
        self.base.take_sources()
    }

    fn feed(&self, source: B::Source, sink: &mut dyn FnMut(I::Item)) {
        self.base.feed(source, &mut |item| {
            (self.f)(item).into_iter().for_each(&mut *sink)
        });
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = Items<T>;
    fn into_par_iter(self) -> Items<T> {
        Items(self)
    }
}

macro_rules! range_into_par_iter {
    ($($t:ty)*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = Items<$t>;
            fn into_par_iter(self) -> Items<$t> {
                Items(self.collect())
            }
        }
    )*};
}
range_into_par_iter!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = Items<&'a T>;
    fn into_par_iter(self) -> Items<&'a T> {
        Items(self.iter().collect())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = Items<&'a T>;
    fn into_par_iter(self) -> Items<&'a T> {
        self.as_slice().into_par_iter()
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Item = <&'a C as IntoParallelIterator>::Item;
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}
