//! Register conventions per ISA.

use igjit_machine::{Isa, Reg};
use igjit_mutate::{armed, ops as mutops};

/// The calling/usage convention compiled test methods follow.
///
/// Mirrors Cog's fixed-role registers (ReceiverResultReg, Arg0Reg, …):
/// the differential tester seeds `receiver`/`arg*` before running and
/// reads results from `receiver` after.
#[derive(Clone, Copy, Debug)]
pub struct Convention {
    /// Receiver on entry; result on return (Cog's ReceiverResultReg).
    pub receiver: Reg,
    /// First argument.
    pub arg0: Reg,
    /// Second argument.
    pub arg1: Reg,
    /// Third argument.
    pub arg2: Reg,
    /// Scratch register.
    pub scratch: Reg,
    /// Second scratch register.
    pub scratch2: Reg,
    /// Frame pointer.
    pub fp: Reg,
    /// Stack pointer.
    pub sp: Reg,
}

impl Convention {
    /// The convention for an ISA.
    pub fn for_isa(isa: Isa) -> Convention {
        let mut c = Convention {
            receiver: Reg(0),
            arg0: Reg(1),
            arg1: Reg(2),
            arg2: Reg(3),
            scratch: Reg(4),
            scratch2: Reg(5),
            fp: isa.fp(),
            sp: isa.sp(),
        };
        if armed(mutops::ARG1_ALIASES_ARG0) {
            c.arg1 = c.arg0;
        }
        if armed(mutops::SCRATCH_ALIASES_RECEIVER) {
            c.scratch = c.receiver;
        }
        if armed(mutops::FP_ALIASES_POOL_REG) {
            c.fp = Reg(5);
        }
        c
    }

    /// Registers the linear-scan allocator may hand out on this ISA
    /// (disjoint from the fixed-role registers above).
    pub fn allocatable(isa: Isa) -> Vec<Reg> {
        let mut pool = Vec::new();
        Convention::allocatable_into(isa, &mut pool);
        pool
    }

    /// [`Convention::allocatable`] into `pool`, which it clears first.
    pub fn allocatable_into(isa: Isa, pool: &mut Vec<Reg>) {
        pool.clear();
        if armed(mutops::ALLOCATABLE_INCLUDES_RECEIVER) {
            pool.push(Reg(0));
        }
        pool.extend_from_slice(match isa {
            // x86ish has no free registers beyond the fixed roles; the
            // allocator reuses the scratch pair.
            Isa::X86ish => &[Reg(4), Reg(5)],
            Isa::Arm32ish => &[Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9), Reg(10), Reg(12)],
        });
    }

    /// The argument register for argument index `i` (0-based).
    pub fn arg(&self, i: usize) -> Reg {
        match i {
            0 => self.arg0,
            1 => self.arg1,
            _ => self.arg2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roles_do_not_collide_with_sp_fp() {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let c = Convention::for_isa(isa);
            for r in [c.receiver, c.arg0, c.arg1, c.arg2, c.scratch, c.scratch2] {
                assert_ne!(r, c.fp, "{isa:?}");
                assert_ne!(r, c.sp, "{isa:?}");
            }
        }
    }

    #[test]
    fn allocatable_regs_are_in_range() {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            let c = Convention::for_isa(isa);
            for r in Convention::allocatable(isa) {
                assert!(r.0 < isa.reg_count());
                assert_ne!(r, c.fp);
                assert_ne!(r, c.sp);
                assert_ne!(r, c.receiver);
            }
        }
    }

    #[test]
    fn arm_has_more_allocatable_registers() {
        assert!(
            Convention::allocatable(Isa::Arm32ish).len()
                > Convention::allocatable(Isa::X86ish).len()
        );
    }
}
