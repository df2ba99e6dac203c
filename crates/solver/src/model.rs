//! Solver models: one concrete assignment per variable.

use crate::constraint::{Kind, VarId};

/// The concrete attributes assigned to one variable.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Assignment {
    /// The chosen kind.
    pub kind: Kind,
    /// Integer attribute (the value for SmallInts, meaningful for
    /// counters and size variables regardless of kind).
    pub int: i64,
    /// Float attribute (the payload when `kind == Float`).
    pub float: f64,
    /// Identity class: variables with equal `alias` denote the same
    /// object (driven by `ObjEq` constraints).
    pub alias: u32,
}

/// A satisfying assignment for a [`Problem`](crate::Problem).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Model {
    assignments: Vec<Assignment>,
}

impl Model {
    pub(crate) fn new(assignments: Vec<Assignment>) -> Model {
        Model { assignments }
    }

    /// Builds a model from explicit assignments (`VarId(0)` first).
    ///
    /// The solver never needs this — it exists so harnesses can
    /// construct adversarial witnesses (e.g. out-of-range integers)
    /// and test how downstream consumers degrade.
    pub fn from_assignments(assignments: Vec<Assignment>) -> Model {
        Model { assignments }
    }

    /// The full assignment of `var`. Variables created *after* the
    /// solve (lazy frame growth) get a default assignment: kind
    /// SmallInt, value 0, unaliased.
    pub fn assignment(&self, var: VarId) -> Assignment {
        self.assignments.get(var.index()).copied().unwrap_or(Assignment {
            kind: Kind::SmallInt,
            int: 0,
            float: 1.5,
            alias: u32::MAX - var.0,
        })
    }

    /// The kind chosen for `var`.
    pub fn kind(&self, var: VarId) -> Kind {
        self.assignment(var).kind
    }

    /// The integer attribute of `var`.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.assignment(var).int
    }

    /// The float attribute of `var`.
    pub fn float_value(&self, var: VarId) -> f64 {
        self.assignment(var).float
    }

    /// Whether two variables were aliased to the same object identity.
    pub fn same_object(&self, a: VarId, b: VarId) -> bool {
        self.assignment(a).alias == self.assignment(b).alias
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}
