//! zkcheck: compile each zklang file and interpret it (input `42`).
//!
//! Prints `OK <file>: exit/journal/steps`, or `READERR`, `COMPILEERR` or
//! `RUNERR` with the error, per file; exits non-zero if any file failed.
//!
//! Run with: `cargo run --release --example zkcheck -- <files.zk>`

use zkvm_opt::ir::interp::InterpConfig;
use zkvm_opt::ir::{Interp, NopEcalls};

fn main() {
    let mut ok = true;
    for f in std::env::args().skip(1) {
        let src = match std::fs::read_to_string(&f) {
            Ok(src) => src,
            Err(e) => {
                ok = false;
                println!("READERR {f}: {e}");
                continue;
            }
        };
        match zkvm_opt::lang::compile_guest(&src) {
            Ok(m) => {
                let cfg = InterpConfig {
                    inputs: vec![42],
                    ..Default::default()
                };
                match Interp::new(&m, cfg, NopEcalls).run_main() {
                    Ok(out) => println!(
                        "OK   {f}: exit={} journal={:?} steps={}",
                        out.exit_value, out.journal, out.steps
                    ),
                    Err(e) => {
                        ok = false;
                        println!("RUNERR {f}: {e:?}");
                    }
                }
            }
            Err(e) => {
                ok = false;
                println!("COMPILEERR {f}: {e}");
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
