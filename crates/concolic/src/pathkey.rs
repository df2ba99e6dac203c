//! The negation walk's path-dedup key.
//!
//! Two runs of the walk land on the same path when their recorded path
//! conditions and outcome variants agree; the walk keeps the first and
//! drops the rest. [`PathKey`] decides that agreement structurally:
//! constraints, linear expressions and kind sets compare exactly, and
//! float constants compare by bit pattern with every NaN collapsed to
//! one canonical NaN and `-0.0` kept apart from `0.0` — the identity
//! the constraints' `{:?}` text gives them, without building the text.
//!
//! [`PathIndex`] holds only the indices of recorded paths, bucketed by
//! the key's hash, and compares a candidate exactly against the stored
//! [`ExploredPath`]s on a hash hit, so the walk keeps no second copy of
//! any path.

use std::hash::{Hash, Hasher};

use igjit_bytecode::fxhash::{FxHashMap, FxHasher64};
use igjit_solver::{Constraint, FloatTerm};

use crate::explore::{ExploredPath, PathOutcome};

/// The identity of one explored path for deduplication: its recorded
/// path condition and the variant of its outcome (payloads aside).
///
/// `Hash` and `Eq` follow the float rules of the module doc, so two
/// keys are equal exactly when their `{:?}` texts are.
#[derive(Clone, Copy, Debug)]
pub struct PathKey<'a> {
    constraints: &'a [Constraint],
    outcome: u8,
}

impl<'a> PathKey<'a> {
    /// The key of a recorded path.
    pub fn of(path: &'a ExploredPath) -> PathKey<'a> {
        PathKey::new(&path.constraints, &path.outcome)
    }

    /// The key of a path condition ending in `outcome`.
    pub(crate) fn new(constraints: &'a [Constraint], outcome: &PathOutcome) -> PathKey<'a> {
        PathKey { constraints, outcome: discriminant_of(outcome) }
    }

    /// The key's bucket hash in the walk's [`PathIndex`].
    pub(crate) fn hash_u64(&self) -> u64 {
        let mut h = FxHasher64::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Hash for PathKey<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.outcome.hash(h);
        hash_constraints(self.constraints, h);
    }
}

impl PartialEq for PathKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome && same_constraints(self.constraints, other.constraints)
    }
}

impl Eq for PathKey<'_> {}

/// A float's identity under the key: its bits, with one NaN for all.
fn float_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn hash_term<H: Hasher>(t: &FloatTerm, h: &mut H) {
    match *t {
        FloatTerm::Var(v) => {
            0u8.hash(h);
            v.hash(h);
        }
        FloatTerm::Const(x) => {
            1u8.hash(h);
            float_bits(x).hash(h);
        }
    }
}

fn hash_constraints<H: Hasher>(cs: &[Constraint], h: &mut H) {
    cs.len().hash(h);
    for c in cs {
        match c {
            Constraint::Kind { var, allowed } => {
                0u8.hash(h);
                var.hash(h);
                allowed.hash(h);
            }
            Constraint::Int(op, l, r) => {
                1u8.hash(h);
                op.hash(h);
                l.hash(h);
                r.hash(h);
            }
            Constraint::Float(op, l, r) => {
                2u8.hash(h);
                op.hash(h);
                hash_term(l, h);
                hash_term(r, h);
            }
            Constraint::ObjEq(a, b) => {
                3u8.hash(h);
                (a, b).hash(h);
            }
            Constraint::ObjNe(a, b) => {
                4u8.hash(h);
                (a, b).hash(h);
            }
            Constraint::Or(cs) => {
                5u8.hash(h);
                hash_constraints(cs, h);
            }
            Constraint::And(cs) => {
                6u8.hash(h);
                hash_constraints(cs, h);
            }
        }
    }
}

fn same_term(a: &FloatTerm, b: &FloatTerm) -> bool {
    match (*a, *b) {
        (FloatTerm::Var(x), FloatTerm::Var(y)) => x == y,
        (FloatTerm::Const(x), FloatTerm::Const(y)) => float_bits(x) == float_bits(y),
        _ => false,
    }
}

fn same_constraints(a: &[Constraint], b: &[Constraint]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_constraint(x, y))
}

fn same_constraint(a: &Constraint, b: &Constraint) -> bool {
    use Constraint as C;
    match (a, b) {
        (C::Kind { var: v, allowed: k }, C::Kind { var: w, allowed: l }) => v == w && k == l,
        (C::Int(o, l, r), C::Int(p, m, s)) => o == p && l == m && r == s,
        (C::Float(o, l, r), C::Float(p, m, s)) => o == p && same_term(l, m) && same_term(r, s),
        (C::ObjEq(x, y), C::ObjEq(z, w)) | (C::ObjNe(x, y), C::ObjNe(z, w)) => x == z && y == w,
        (C::Or(x), C::Or(y)) | (C::And(x), C::And(y)) => same_constraints(x, y),
        _ => false,
    }
}

/// The outcome variant, payloads aside.
fn discriminant_of(o: &PathOutcome) -> u8 {
    match o {
        PathOutcome::Success => 0,
        PathOutcome::Jump { .. } => 1,
        PathOutcome::Failure => 2,
        PathOutcome::MessageSend(_) => 3,
        PathOutcome::MethodReturn { .. } => 4,
        PathOutcome::InvalidFrame => 5,
        PathOutcome::InvalidMemoryAccess => 6,
        PathOutcome::Unsupported { .. } => 7,
    }
}

/// The walk's set of recorded paths: each path's index, bucketed by
/// its key's hash. Paths whose hashes collide are chained, newest
/// first, and told apart by exact comparison.
#[derive(Default)]
pub(crate) struct PathIndex {
    /// Hash → the newest recorded path with that hash.
    newest: FxHashMap<u64, u32>,
    /// Per recorded path, the next older path with the same hash.
    older: Vec<Option<u32>>,
}

impl PathIndex {
    /// Whether `paths` already holds a path equal to `key`, which
    /// hashes to `hash`.
    pub(crate) fn contains(&self, paths: &[ExploredPath], hash: u64, key: PathKey<'_>) -> bool {
        let mut at = self.newest.get(&hash).copied();
        while let Some(i) = at {
            if PathKey::of(&paths[i as usize]) == key {
                return true;
            }
            at = self.older[i as usize];
        }
        false
    }

    /// Records that the next path pushed, at `index`, hashes to `hash`.
    pub(crate) fn insert(&mut self, hash: u64, index: usize) {
        debug_assert_eq!(index, self.older.len(), "paths are recorded in order");
        let index = u32::try_from(index).expect("fewer than 2^32 paths per walk");
        self.older.push(self.newest.insert(hash, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::InstrUnderTest;
    use igjit_bytecode::Instruction;
    use igjit_solver::{CmpOp, Kind, KindSet, LinExpr, Model, VarId};

    fn float_lt(x: f64) -> Vec<Constraint> {
        vec![Constraint::Float(CmpOp::Lt, FloatTerm::Var(VarId(0)), FloatTerm::Const(x))]
    }

    fn key(cs: &[Constraint]) -> PathKey<'_> {
        PathKey::new(cs, &PathOutcome::Success)
    }

    /// Key equality must agree with equality of the `{:?}` text.
    fn assert_agrees_with_text(a: &[Constraint], b: &[Constraint]) {
        let text = format!("{a:?}") == format!("{b:?}");
        assert_eq!(key(a) == key(b), text, "{a:?} vs {b:?}");
        if text {
            assert_eq!(key(a).hash_u64(), key(b).hash_u64(), "{a:?}");
        }
    }

    fn recorded(constraints: Vec<Constraint>, outcome: PathOutcome) -> ExploredPath {
        ExploredPath {
            instruction: InstrUnderTest::Bytecode(Instruction::Add),
            constraints,
            model: Model::from_assignments(Vec::new()),
            outcome,
        }
    }

    #[test]
    fn every_nan_is_one_key() {
        let nans = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_DEAD_BEEF_0001),
            f64::INFINITY - f64::INFINITY,
        ];
        for a in nans {
            for b in nans {
                assert_eq!(key(&float_lt(a)), key(&float_lt(b)));
                assert_eq!(key(&float_lt(a)).hash_u64(), key(&float_lt(b)).hash_u64());
                assert_agrees_with_text(&float_lt(a), &float_lt(b));
            }
            assert_ne!(key(&float_lt(a)), key(&float_lt(f64::INFINITY)));
        }
    }

    #[test]
    fn negative_zero_is_not_zero() {
        assert_ne!(key(&float_lt(-0.0)), key(&float_lt(0.0)));
        assert_agrees_with_text(&float_lt(-0.0), &float_lt(0.0));
        assert_eq!(key(&float_lt(-0.0)), key(&float_lt(-0.0)));
    }

    #[test]
    fn nesting_and_term_order_are_told_apart() {
        let (x, y) = (VarId(0), VarId(1));
        let kx = Constraint::kind_is(x, Kind::SmallInt);
        let ky = Constraint::kind_is(y, Kind::SmallInt);
        let shapes = [
            vec![Constraint::Or(vec![kx.clone(), ky.clone()])],
            vec![Constraint::And(vec![kx.clone(), ky.clone()])],
            vec![Constraint::Or(vec![Constraint::And(vec![kx.clone()]), ky.clone()])],
            vec![Constraint::Or(vec![Constraint::And(vec![kx.clone(), ky.clone()])])],
            vec![Constraint::And(vec![Constraint::Or(vec![kx.clone(), ky.clone()])])],
            vec![kx.clone(), ky.clone()],
            vec![ky.clone(), kx.clone()],
            vec![Constraint::Or(vec![kx.clone()]), ky.clone()],
            vec![Constraint::Or(vec![]), kx.clone(), ky.clone()],
        ];
        let xy = LinExpr { constant: 0, terms: vec![(1, x), (2, y)] };
        let yx = LinExpr { constant: 0, terms: vec![(2, y), (1, x)] };
        let zero = LinExpr::constant(0);
        let exprs = [
            vec![Constraint::Int(CmpOp::Lt, xy.clone(), zero.clone())],
            vec![Constraint::Int(CmpOp::Lt, yx, zero.clone())],
            vec![Constraint::Int(CmpOp::Lt, zero.clone(), xy.clone())],
            vec![Constraint::Int(CmpOp::Le, xy, zero)],
            vec![Constraint::ObjEq(x, y)],
            vec![Constraint::ObjNe(x, y)],
            vec![Constraint::ObjEq(y, x)],
            vec![Constraint::Kind { var: x, allowed: KindSet::ANY }],
            vec![Constraint::Kind { var: x, allowed: KindSet::EMPTY }],
        ];
        let all: Vec<&Vec<Constraint>> = shapes.iter().chain(&exprs).collect();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(key(a) == key(b), i == j, "{a:?} vs {b:?}");
                assert_agrees_with_text(a, b);
            }
        }
    }

    #[test]
    fn the_outcome_variant_is_part_of_the_key() {
        let cs = float_lt(1.0);
        let send = PathOutcome::MessageSend(crate::explore::SendRecord {
            special: None,
            must_be_boolean: true,
            literal_selector: None,
            receiver: igjit_heap::Oop(0),
            args: Vec::new(),
        });
        assert_ne!(PathKey::new(&cs, &PathOutcome::Success), PathKey::new(&cs, &send));
        // Payloads are not: two jumps of different displacement agree.
        assert_eq!(
            PathKey::new(&cs, &PathOutcome::Jump { displacement: 1 }),
            PathKey::new(&cs, &PathOutcome::Jump { displacement: 9 }),
        );
    }

    #[test]
    fn colliding_hashes_still_compare_exactly() {
        // Every path filed under one hash: membership must come from
        // the exact comparison alone.
        const H: u64 = 7;
        let paths = vec![
            recorded(float_lt(0.0), PathOutcome::Success),
            recorded(float_lt(f64::NAN), PathOutcome::Success),
            recorded(float_lt(0.0), PathOutcome::Failure),
        ];
        let mut index = PathIndex::default();
        for (i, p) in paths.iter().enumerate() {
            assert!(!index.contains(&paths[..i], H, PathKey::of(p)), "{i}");
            index.insert(H, i);
        }
        for p in &paths {
            assert!(index.contains(&paths, H, PathKey::of(p)));
        }
        let nan = float_lt(-f64::NAN);
        assert!(index.contains(&paths, H, key(&nan)));
        for absent in [float_lt(-0.0), float_lt(1.0), Vec::new()] {
            assert!(!index.contains(&paths, H, key(&absent)), "{absent:?}");
        }
        // A different hash finds nothing, even for a stored path.
        assert!(!index.contains(&paths, H + 1, PathKey::of(&paths[0])));
    }
}
