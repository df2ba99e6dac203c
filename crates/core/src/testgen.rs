//! Generated unit tests (§5 / §6: "our approach produces reproducible
//! tests that exercise both the interpreter and JIT compilers").
//!
//! One exploration pass turns every curated path into a persistent,
//! individually re-runnable unit test: the test carries its solver
//! model (the concrete frame recipe), its instruction, target compiler
//! and ISA, so it can be replayed at any time without re-running the
//! concolic engine — the "results of the concolic exploration can be
//! cached and reused multiple times" point of §5.4.

use std::sync::Arc;

use igjit_bytecode::instruction_catalog;
use igjit_concolic::{AbstractState, Explorer, InstrUnderTest};
use igjit_difftest::{Checked, Harness, PathVerdict, Program, Target, Verdict};
use igjit_interp::native_catalog;
use igjit_jit::CodeCache;
use igjit_machine::Isa;
use igjit_solver::Model;

/// One reproducible differential unit test.
#[derive(Clone, Debug)]
pub struct GeneratedTest {
    /// Stable test name, e.g. `bc_Add_path3_StackToRegister_x86`.
    pub name: String,
    /// The instruction under test.
    pub instruction: InstrUnderTest,
    /// The compiler under test.
    pub target: Target,
    /// The ISA the compiled half runs on.
    pub isa: Isa,
    /// The frame recipe (solver model) — the cached concolic result.
    pub model: Model,
    /// The exploration's variable registry, shared per instruction.
    pub state: Arc<AbstractState>,
    /// Interpreter exit of this path, as recorded at generation time.
    pub expected_exit: String,
}

/// The outcome of replaying one generated test.
#[derive(Clone, Debug, PartialEq)]
pub enum TestResult {
    /// Interpreter and compiled code agree.
    Pass,
    /// They diverge (the detail names the difference).
    Fail(String),
    /// The path is an expected failure (invalid frame/memory) and was
    /// skipped, per §3.4.
    Skipped,
}

impl GeneratedTest {
    /// Replays the test through the campaign's differential step on
    /// this test's ISA: the thread's replay arena and a fresh artifact
    /// cache.
    pub fn run(&self) -> TestResult {
        let code_cache = CodeCache::new();
        let isas = std::slice::from_ref(&self.isa);
        let mut harness = Harness::new(self.target, isas, &code_cache);
        let mut path = PathVerdict::new(self.instruction);
        let program = Program::of(&self.instruction);
        let checked = harness.check(&self.state, &self.model, program, false, &mut path);
        harness.finish();
        match checked {
            Checked::OraclePanic => TestResult::Fail("the interpreter oracle panicked".into()),
            Checked::Unrealizable(e) => TestResult::Fail(format!("unrealizable witness: {e}")),
            Checked::Untestable => TestResult::Skipped,
            Checked::Compared | Checked::Refused => match path.verdict {
                Verdict::Agree => TestResult::Pass,
                Verdict::Difference(d) => TestResult::Fail(d.detail),
            },
        }
    }
}

/// A persistent suite of generated tests.
#[derive(Clone, Debug, Default)]
pub struct GeneratedSuite {
    /// The tests, in generation order.
    pub tests: Vec<GeneratedTest>,
}

/// Summary of replaying a suite.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteReport {
    /// Tests whose engines agree.
    pub passed: usize,
    /// Tests whose engines diverge (found defects).
    pub failed: usize,
    /// Expected-failure paths skipped by the runner.
    pub skipped: usize,
}

impl GeneratedSuite {
    /// Generates the tests for one instruction against one target, on
    /// the given ISAs — one test per curated path per ISA.
    pub fn generate_for(
        instr: InstrUnderTest,
        target: Target,
        isas: &[Isa],
    ) -> GeneratedSuite {
        let exploration = Explorer::new().explore(instr);
        let state = Arc::new(exploration.state.clone());
        let mut tests = Vec::new();
        let label: std::borrow::Cow<'static, str> = match instr {
            InstrUnderTest::Bytecode(i) => format!("bc_{i:?}").into(),
            InstrUnderTest::Native(id) => match igjit_interp::native_spec(id) {
                // The spec table is `'static`; borrow the name
                // instead of cloning it once per generated suite.
                Some(s) => s.name.as_str().into(),
                None => format!("prim{}", id.0).into(),
            },
        };
        let tier = match target {
            Target::NativeMethods => "template".to_string(),
            Target::Bytecode(k) => format!("{k:?}"),
            Target::MetaCompiled => "Meta".to_string(),
        };
        for (pi, path) in exploration.curated_paths().iter().enumerate() {
            let exit = path
                .outcome
                .exit_condition()
                .map(|e| format!("{e:?}"))
                .unwrap_or_else(|| "unsupported".into());
            for &isa in isas {
                tests.push(GeneratedTest {
                    name: format!("{label}_path{pi}_{tier}_{}", isa.name()),
                    instruction: instr,
                    target,
                    isa,
                    model: path.model.clone(),
                    state: Arc::clone(&state),
                    expected_exit: exit.clone(),
                });
            }
        }
        GeneratedSuite { tests }
    }

    /// Generates the paper's full battery: every native method against
    /// the template compiler and every bytecode against the three
    /// tiers, on both ISAs — the ">4.5K tests" of §5.
    pub fn generate_full(isas: &[Isa]) -> GeneratedSuite {
        let mut suite = GeneratedSuite::default();
        for spec in native_catalog() {
            suite.extend(GeneratedSuite::generate_for(
                InstrUnderTest::Native(spec.id),
                Target::NativeMethods,
                isas,
            ));
        }
        for kind in igjit_jit::CompilerKind::ALL {
            for spec in instruction_catalog() {
                suite.extend(GeneratedSuite::generate_for(
                    InstrUnderTest::Bytecode(spec.instruction),
                    Target::Bytecode(kind),
                    isas,
                ));
            }
        }
        suite
    }

    /// Appends another suite.
    pub fn extend(&mut self, other: GeneratedSuite) {
        self.tests.extend(other.tests);
    }

    /// Number of tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Replays every test.
    pub fn run(&self) -> SuiteReport {
        let mut report = SuiteReport::default();
        for t in &self.tests {
            match t.run() {
                TestResult::Pass => report.passed += 1,
                TestResult::Fail(_) => report.failed += 1,
                TestResult::Skipped => report.skipped += 1,
            }
        }
        report
    }

    /// A human-readable manifest (one line per test).
    pub fn manifest(&self) -> String {
        let mut out = String::new();
        for t in &self.tests {
            out.push_str(&format!("{:<56} expected: {}\n", t.name, t.expected_exit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igjit_bytecode::Instruction;
    use igjit_interp::NativeMethodId;
    use igjit_jit::CompilerKind;

    #[test]
    fn generated_add_tests_replay() {
        let suite = GeneratedSuite::generate_for(
            InstrUnderTest::Bytecode(Instruction::Add),
            Target::Bytecode(CompilerKind::StackToRegister),
            &[Isa::X86ish, Isa::Arm32ish],
        );
        // One test per curated path per ISA.
        assert!(suite.len() >= 10, "{}", suite.len());
        let report = suite.run();
        assert!(report.passed > 0);
        // Exactly the float fast path fails, on both ISAs.
        assert_eq!(report.failed, 2, "{report:?}");
        assert!(report.skipped > 0, "invalid-frame paths are skipped");
    }

    #[test]
    fn generated_native_tests_replay() {
        let suite = GeneratedSuite::generate_for(
            InstrUnderTest::Native(NativeMethodId(1)),
            Target::NativeMethods,
            &[Isa::X86ish],
        );
        let report = suite.run();
        assert_eq!(report.failed, 0, "primitiveAdd has no defect");
        assert!(report.passed >= 3);
    }

    #[test]
    fn generated_ffi_tests_fail_as_defects() {
        let suite = GeneratedSuite::generate_for(
            InstrUnderTest::Native(NativeMethodId(136)),
            Target::NativeMethods,
            &[Isa::X86ish],
        );
        let report = suite.run();
        assert!(report.failed > 0, "missing functionality must fail: {report:?}");
        assert_eq!(report.passed, 0);
    }

    #[test]
    fn manifest_lists_every_test() {
        let suite = GeneratedSuite::generate_for(
            InstrUnderTest::Bytecode(Instruction::Pop),
            Target::Bytecode(CompilerKind::SimpleStackBased),
            &[Isa::X86ish],
        );
        let manifest = suite.manifest();
        assert_eq!(manifest.lines().count(), suite.len());
        assert!(manifest.contains("bc_Pop_path0"));
    }
}
