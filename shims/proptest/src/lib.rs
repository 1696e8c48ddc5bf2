//! Offline stand-in for `proptest`.
//!
//! Runs each property as a deterministic randomized test: the RNG is seeded
//! from the test name, every case draws fresh inputs from the declared
//! strategies, and `prop_assert!`-style macros panic with context on
//! failure. No shrinking — a failing case prints its inputs via the assert
//! message instead.
//!
//! Supported surface (what this repository uses): `proptest! {}` with
//! optional `#![proptest_config(...)]`, integer-range strategies, `any<T>`,
//! tuple strategies, `prop_map`, `prop::collection::vec`, simple
//! regex-string strategies (`"[a-z]{1,8}"`, `".{0,300}"`), `Just`, and
//! `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` / `prop_assume!`.

use std::ops::{Range, RangeInclusive};

/// Marker returned by `prop_assume!` when a case is rejected.
#[derive(Debug)]
pub struct Reject;

/// Test-runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
    /// Maximum rejected cases (via `prop_assume!`) before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

/// The deterministic RNG driving input generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary string (the test name), so every test gets a
    /// distinct but reproducible stream.
    pub fn deterministic(name: &str) -> Self {
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: state | 1 }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Discard generated values failing `pred` (retries a bounded number of
    /// times, then panics).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, pred }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// The strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// A strategy always yielding a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ------------------------------------------------------ integer strategies

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

// -------------------------------------------------------------- any::<T>()

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite values only, spread over a wide range.
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let exp = (rng.next_u64() % 41) as i32 - 20;
        (unit * 2.0 - 1.0) * 10f64.powi(exp)
    }
}

/// The strategy behind [`any`].
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

// ----------------------------------------------------------------- tuples

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
}

// ------------------------------------------------------------ collections

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// --------------------------------------------------- regex-like &str input

/// `&str` strategies: a pragmatic regex subset — sequences of `.`, `[...]`
/// character classes, and literal characters, each with an optional `{m,n}`,
/// `{m}`, `*`, `+`, or `?` quantifier.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for (atom, min, max) in &atoms {
            let span = (*max - *min) as u64 + 1;
            let count = *min + (rng.next_u64() % span) as usize;
            for _ in 0..count {
                out.push(atom.sample(rng));
            }
        }
        out
    }
}

enum PatternAtom {
    Any,
    Literal(char),
    Class(Vec<char>),
}

impl PatternAtom {
    fn sample(&self, rng: &mut TestRng) -> char {
        match self {
            PatternAtom::Literal(c) => *c,
            PatternAtom::Class(chars) => chars[(rng.next_u64() % chars.len() as u64) as usize],
            PatternAtom::Any => {
                // Printable ASCII, weighted to include some whitespace.
                let roll = rng.next_u64() % 100;
                if roll < 5 {
                    ['\t', '\n', ' '][(roll % 3) as usize]
                } else {
                    char::from(b' ' + (rng.next_u64() % 95) as u8)
                }
            }
        }
    }
}

fn parse_pattern(pattern: &str) -> Vec<(PatternAtom, usize, usize)> {
    let mut chars = pattern.chars().peekable();
    let mut atoms = Vec::new();
    while let Some(c) = chars.next() {
        let atom = match c {
            '.' => PatternAtom::Any,
            '\\' => PatternAtom::Literal(unescape(chars.next().unwrap_or('\\'))),
            '[' => {
                let mut set = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    match chars.next() {
                        None => panic!("unterminated character class in {pattern:?}"),
                        Some(']') => break,
                        Some('\\') => {
                            let c = unescape(chars.next().unwrap_or('\\'));
                            set.push(c);
                            prev = Some(c);
                        }
                        Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                            let start = prev.take().expect("checked");
                            let end = match chars.next() {
                                Some('\\') => unescape(chars.next().unwrap_or('\\')),
                                Some(e) => e,
                                None => panic!("unterminated range in {pattern:?}"),
                            };
                            for code in (start as u32 + 1)..=(end as u32) {
                                if let Some(c) = char::from_u32(code) {
                                    set.push(c);
                                }
                            }
                        }
                        Some(c) => {
                            set.push(c);
                            prev = Some(c);
                        }
                    }
                }
                assert!(!set.is_empty(), "empty character class in {pattern:?}");
                PatternAtom::Class(set)
            }
            c => PatternAtom::Literal(c),
        };
        // Optional quantifier.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad quantifier"),
                        hi.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        };
        assert!(min <= max, "inverted quantifier in {pattern:?}");
        atoms.push((atom, min, max));
    }
    atoms
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        other => other,
    }
}

// ----------------------------------------------------------------- macros

/// Declare property tests. Each function parameter draws from its strategy;
/// the body runs once per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut __ok: u32 = 0;
            let mut __rejected: u32 = 0;
            while __ok < __config.cases {
                // The immediately-called closure gives `prop_assume!` a
                // `?`-style early exit without a labelled block.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::Reject> = (|| {
                    $(let $pat = $crate::Strategy::generate(&($strategy), &mut __rng);)+
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __ok += 1,
                    ::std::result::Result::Err($crate::Reject) => {
                        __rejected += 1;
                        assert!(
                            __rejected <= __config.max_global_rejects,
                            "too many prop_assume! rejections ({} cases passed)",
                            __ok
                        );
                    }
                }
            }
        }
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
}

/// Assert inside a property; panics (failing the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Reject the current case (it is regenerated, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::Reject);
        }
    };
}

/// The customary glob import for proptest users.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };

    /// Namespace mirror so `prop::collection::vec(...)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in -5i64..=5) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-5..=5).contains(&b));
        }

        #[test]
        fn tuples_and_map((x, y) in (0u64..100, 0u64..100).prop_map(|(a, b)| (a, a + b))) {
            prop_assert!(y >= x);
        }

        #[test]
        fn assume_rejects(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn regex_subset(s in "[a-c]{2,4}", t in ".{0,10}", v in prop::collection::vec("[xy]{1,2}", 1..4)) {
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!(t.len() <= 10);
            prop_assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_rng() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
