//! The `Strategy` trait and the combinators the workspace's property
//! tests use. Unlike real proptest there is no shrinking: a failing case
//! reports the generated inputs verbatim (generation is deterministic per
//! test name + case index, so failures reproduce).

use crate::regex_gen::RegexGen;
use crate::rng::TestRng;

/// A recipe for producing random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform produced values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy (what `prop_oneof!` arms are coerced to).
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A weighted choice between type-erased alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms; total weight must be > 0.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (weight, strat) in &self.arms {
            let weight = u64::from(*weight);
            if pick < weight {
                return strat.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("pick below total weight")
    }
}

/// Integer ranges are strategies (`0u64..1000`, `1usize..25`, ...).
macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

/// `&'static str` patterns are strategies producing matching strings,
/// via the in-tree regex-subset generator.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let gen = RegexGen::compile(self).unwrap_or_else(|e| panic!("{e}"));
        gen.generate(rng)
    }
}

/// Tuples of strategies produce tuples of values.
macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Result of [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    len: std::ops::Range<usize>,
}

/// `prop::collection::vec`: a vector whose length is drawn from `len`
/// (a half-open range, matching the call sites) and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.range_usize(self.len.start, self.len.end);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Result of [`of`].
pub struct OptionStrategy<S>(S);

/// `prop::option::of`: `Some` three times out of four, like proptest's
/// default weighting.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy(inner)
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.below(4) < 3 {
            Some(self.0.generate(rng))
        } else {
            None
        }
    }
}

/// Result of [`select`].
pub struct Select<T>(Vec<T>);

/// `prop::sample::select`: pick uniformly from a non-empty list.
pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
    assert!(!items.is_empty(), "select needs at least one item");
    Select(items)
}

impl<T: Clone> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0[rng.range_usize(0, self.0.len())].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_maps_and_tuples() {
        let mut rng = TestRng::seed_from_u64(3);
        let strat = (1usize..10, (0u32..5).prop_map(|n| n * 2));
        for _ in 0..100 {
            let (a, b) = strat.generate(&mut rng);
            assert!((1..10).contains(&a));
            assert!(b % 2 == 0 && b < 10);
        }
    }

    #[test]
    fn union_respects_weights() {
        let strat = Union::new(vec![(9, Just("hot").boxed()), (1, Just("cold").boxed())]);
        let mut rng = TestRng::seed_from_u64(11);
        let hot = (0..1000)
            .filter(|_| strat.generate(&mut rng) == "hot")
            .count();
        assert!(hot > 800 && hot < 980, "{hot}");
    }

    #[test]
    fn collections_and_select() {
        let mut rng = TestRng::seed_from_u64(5);
        let strat = vec(select(std::vec![1, 2, 3]), 2..5);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
            assert!(v.iter().all(|x| (1..=3).contains(x)));
        }
        let opt = of(0u64..3);
        let somes = (0..1000)
            .filter(|_| opt.generate(&mut rng).is_some())
            .count();
        assert!(somes > 650 && somes < 850, "{somes}");
    }

    #[test]
    fn str_patterns_generate_matching_strings() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..30 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 6);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
