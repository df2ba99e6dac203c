//! Quickstart: differentially test one bytecode instruction and one
//! native method, end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use igjit::{Campaign, CampaignConfig, CompilerKind, Instruction, Isa, NativeMethodId, Verdict};

fn main() {
    // The paper's setup: both ISAs, kind probing on.
    let campaign = Campaign::new(CampaignConfig {
        isas: vec![Isa::X86ish, Isa::Arm32ish],
        probes: true,
        threads: 1,
        ..CampaignConfig::default()
    });

    // 1. The guiding example: the add bytecode (Listing 1 / Fig. 2).
    //    Concolic exploration of the *interpreter* discovers its paths;
    //    each is compiled with the production StackToRegister tier and
    //    compared.
    println!("== add bytecode vs StackToRegisterCogit ==");
    let outcome =
        campaign.test_bytecode_instruction(Instruction::Add, CompilerKind::StackToRegister);
    println!(
        "paths: {} found, {} curated, {} differing",
        outcome.paths_found,
        outcome.curated,
        outcome.difference_count()
    );
    for v in &outcome.verdicts {
        match &v.verdict {
            Verdict::Agree => {}
            Verdict::Difference(d) => {
                println!(
                    "  DIFFERENCE on a {} path: {} [{}]",
                    v.interp_exit,
                    d.detail,
                    v.cause.as_ref().map(|c| c.category.name()).unwrap_or("?")
                );
            }
        }
    }

    // 2. A native method with a planted compiled-side defect: the
    //    float addition primitive forgets its receiver type check.
    println!("\n== primitiveFloatAdd vs the template compiler ==");
    let outcome = campaign.test_native_method(NativeMethodId(41));
    println!(
        "paths: {} found, {} curated, {} differing",
        outcome.paths_found,
        outcome.curated,
        outcome.difference_count()
    );
    for v in &outcome.verdicts {
        if let Verdict::Difference(d) = &v.verdict {
            println!(
                "  DIFFERENCE on a {} path{}: {}",
                v.interp_exit,
                if v.found_by_probe { " (found by kind probing)" } else { "" },
                d.detail
            );
        }
    }

    // 3. The famous Listing 5 defect: primitiveAsFloat misses its
    //    receiver check in the *interpreter*.
    println!("\n== primitiveAsFloat (Listing 5) ==");
    let outcome = campaign.test_native_method(NativeMethodId(40));
    for v in &outcome.verdicts {
        if let Verdict::Difference(d) = &v.verdict {
            println!(
                "  the interpreter happily coerces a pointer: {} [{}]",
                d.detail,
                v.cause.as_ref().map(|c| c.category.name()).unwrap_or("?")
            );
        }
    }
}
